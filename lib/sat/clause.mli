(** Clauses as immutable literal arrays, plus the resolution operation the
    whole checker is built on (paper §2.1). *)

type t = Lit.t array

val of_lits : Lit.t list -> t
val of_ints : int list -> t
val to_ints : t -> int list
val size : t -> int
val is_empty : t -> bool

(** [mem l c] tests literal membership (linear scan; clauses are short). *)
val mem : Lit.t -> t -> bool

(** [normalize c] sorts, removes duplicate literals, and returns [None] if
    [c] is a tautology (contains both phases of some variable). *)
val normalize : t -> t option

(** [is_tautology c] holds when [c] contains a variable in both phases. *)
val is_tautology : t -> bool

(** [clashing_vars c1 c2] lists the variables appearing with opposite
    phases in [c1] and [c2]; resolution is defined only when this is a
    singleton. *)
val clashing_vars : t -> t -> Lit.var list

(** [resolve c1 c2 v] is the resolvent of [c1] and [c2] on pivot [v]: the
    union of their literals minus both phases of [v], duplicates removed.
    This is exactly the paper's [resolve(cl1, cl2, var)].
    @raise Invalid_argument if [v] does not appear in opposite phases, or
    if some other variable also clashes (the resolvent would be a
    tautology, which the paper's framework never produces). *)
val resolve : t -> t -> Lit.var -> t

(** Outcome of {!resolve_normalized}. *)
type merge =
  | No_clash             (** no variable clashes *)
  | One_clash of t       (** exactly one clashes: the sorted resolvent *)
  | Multi_clash          (** several clash: the resolvent is tautological *)

(** [resolve_normalized c1 c2] resolves two {e normalized} clauses (as
    {!normalize} returns them: sorted, duplicate-free, non-tautological)
    in one sorted-merge walk, O(|c1| + |c2|).  A [One_clash] resolvent is
    normalized too, so chains fold without renormalizing.  On normalized
    operands it agrees with {!clashing_vars} and {!resolve}, which stay
    the reference definitions; on other inputs the result is
    unspecified. *)
val resolve_normalized : t -> t -> merge

(** [equal_modulo_order c1 c2] compares clauses as literal sets. *)
val equal_modulo_order : t -> t -> bool

val to_string : t -> string
val pp : Format.formatter -> t -> unit
