(** The shared resolution kernel: one checked sorted-merge resolution
    routine plus the proof-DAG traversal machinery every checker is built
    on.

    A kernel owns a {!Clause_db}, the formula's original clauses
    (materialised into the store on first use, which also marks them as
    unsat-core members), an id → handle table for clauses the proof has
    defined, and the counters every checker reports uniformly.

    Two traversal styles drive the checkers, both fed by a
    {!Trace.Reader.cursor}:

    - {!stream_pass} / {!load}: validated one-pass forward streaming, the
      §3.3 breadth-first discipline (and the load phase of §3.2);
    - {!builder} / {!build}: on-demand recursive reconstruction through
      the resolve-source DAG with cycle detection, the §3.2 depth-first
      discipline, generalised over a clause annotation so interpolation
      (McMillan's rule) rides the same traversal as plain checking.

    Every resolution performed anywhere in the system goes through
    {!resolve} here, which enforces the paper's side condition: exactly
    one variable in opposite phases, no tautological resolvents. *)

type t

val create : ?meter:Harness.Meter.t -> Sat.Cnf.t -> t

val db : t -> Clause_db.t
val meter : t -> Harness.Meter.t
val num_original : t -> int
val is_original : t -> int -> bool

(** {2 The id → clause table} *)

(** [define t id h] binds [id] to [h], transferring one reference to the
    table. *)
val define : t -> int -> Clause_db.handle -> unit

val defined : t -> int -> bool

(** [find t ~context id] looks [id] up; original clauses are materialised
    into the store on demand (and recorded in the unsat core).
    @raise Diagnostics.Check_failed with [Unknown_clause] otherwise. *)
val find : t -> context:string -> int -> Clause_db.handle

(** [release_id t id] drops the table's binding and its reference; a
    no-op when [id] is not bound (the clause was never stored or has
    already drained). *)
val release_id : t -> int -> unit

(** {2 Resolution} *)

(** [resolve t ~context ~c1_id ~c2_id h1 h2] is the checked resolvent (a
    fresh handle owned by the caller) and the pivot variable.
    @raise Diagnostics.Check_failed with [No_clash] or [Multiple_clash]
    when the side condition fails. *)
val resolve :
  t ->
  context:string ->
  c1_id:int ->
  c2_id:int ->
  Clause_db.handle ->
  Clause_db.handle ->
  Clause_db.handle * Sat.Lit.var

(** [resolve_lits] is {!resolve} on plain literal arrays (tests and
    micro-benchmarks); the operands are staged through the store and
    released. *)
val resolve_lits :
  t ->
  context:string ->
  c1_id:int ->
  c2_id:int ->
  Sat.Lit.t array ->
  Sat.Lit.t array ->
  Sat.Lit.t array * Sat.Lit.var

(** {2 Re-entrant scratch resolution}

    The parallel checker's worker domains replay resolution chains while
    the shared store is read-only; this entry point touches no kernel
    state, so any number of domains may run it concurrently. *)

(** [resolve_ro ~context ~c1_id ~c2_id a na ro h2 out] is the same
    checked resolution as {!resolve}, on the sorted duplicate-free packed
    literal run [a.(0..na-1)] and the clause [h2] read in place from the
    frozen store view [ro], writing the resolvent into the caller-owned
    [out] (capacity at least [na] plus the size of [h2]) — worker domains
    resolve against shared clauses with zero per-operand copying.
    Returns [(resolvent length, pivot, merged literal count)]; updates no
    counters and allocates nothing in any shared arena.
    @raise Diagnostics.Check_failed with [No_clash] or [Multiple_clash]
    when the side condition fails. *)
val resolve_ro :
  context:string ->
  c1_id:int ->
  c2_id:int ->
  int array ->
  int ->
  Clause_db.ro ->
  Clause_db.handle ->
  int array ->
  int * Sat.Lit.var * int

(** [peek t id] is the read-only id lookup: [None] when [id] is unbound,
    never materialises an original clause, never mutates.  The only id
    table access allowed from a worker domain. *)
val peek : t -> int -> Clause_db.handle option

(** [record_external_chain t ~learned_id ~steps ~merges] folds the
    counter deltas of one learned-clause chain performed through
    {!resolve_ro} into the kernel totals (one built clause, [steps]
    resolutions, [merges] merged literals), keeping reports identical to
    a sequential run.  Single-threaded: call only at a barrier. *)
val record_external_chain :
  t -> learned_id:int -> steps:int -> merges:int -> unit

(** [chain t ~context ~fetch ~combine ~learned_id ids] folds checked
    resolution left-to-right over the clauses named by [ids], threading an
    annotation through [combine] at each step, and returns the final
    clause (a handle owned by the caller — for a single-element chain, a
    retained alias of the source) with its annotation.  Counts one built
    clause.
    @raise Diagnostics.Check_failed on any invalid step, and with
    [Empty_source_list] when [ids] is empty. *)
val chain :
  t ->
  context:string ->
  fetch:(int -> Clause_db.handle * 'a) ->
  combine:(pivot:Sat.Lit.var -> 'a -> 'a -> 'a) ->
  learned_id:int ->
  int array ->
  Clause_db.handle * 'a

(** [chain_ids] is {!chain} without annotations. *)
val chain_ids :
  t ->
  context:string ->
  fetch:(int -> Clause_db.handle) ->
  learned_id:int ->
  int array ->
  Clause_db.handle

(** {2 Streaming traversal (breadth-first style)} *)

type pass = {
  total_learned : int;
  final_conflict : int option;
}

(** What a streaming pass charges to the meter as it goes: the full
    parsed-trace residency (§3.2 depth-first holds the whole trace), just
    the resolve-source lists (the hybrid's pass one), or nothing. *)
type residency = [ `Full | `Defs | `None ]

(** The validating pass as an incremental state machine, so it can be
    driven by pulling from a source ({!stream_pass}) or by pushing events
    into it live from the solver (the online validator).  Both drivers
    run the identical per-event validation and meter charges. *)
type stream

val stream_start :
  t ->
  ?stream_order:bool ->
  ?l0:Level0.t ->
  ?charge:residency ->
  ?accept_hints:bool ->
  unit ->
  stream

(** [stream_feed st e] validates one event: header matching the formula,
    no learned id shadowing an original or defined twice, no empty source
    list — and, with [stream_order] (default), no forward references.
    Deletion-hint records ([Event.Delete]) fail with
    {!Diagnostics.Hints_unsupported} unless the stream was started with
    [accept_hints] — the hinted checker acts on them itself; every other
    strategy must refuse a version-2 trace rather than silently ignore
    its hints.
    @raise Diagnostics.Check_failed on the first violation. *)
val stream_feed : stream -> Trace.Event.t -> unit

(** [stream_finish st] checks a header was seen and returns the totals. *)
val stream_finish : stream -> pass

(** [stream_pass t src] drains [src] through {!stream_feed} and finishes.
    The source is consumed from its current position — callers wanting
    the whole trace pass a fresh source (or rewind their cursor first).
    [on_event] sees each event after validation. *)
val stream_pass :
  t ->
  ?stream_order:bool ->
  ?l0:Level0.t ->
  ?charge:residency ->
  ?on_event:(Trace.Event.t -> unit) ->
  Trace.Source.t ->
  pass

(** A fully loaded proof skeleton: resolve-source lists and level-0
    records — what the depth-first checker and the interpolator keep in
    memory. *)
type proof = {
  sources : (int, int array) Hashtbl.t;
  l0 : Level0.t;
  final_conflict : int option;
  total_learned : int;
}

val load :
  t ->
  ?stream_order:bool ->
  ?charge:residency ->
  Trace.Source.t ->
  proof

(** {2 Recursive traversal (depth-first style)} *)

(** How to annotate clauses during a depth-first build: [of_original] is
    the base case, [combine] the per-resolution step.  Plain checking
    uses {!unit_annotation}; interpolation supplies McMillan's rule. *)
type 'a annotation = {
  of_original : int -> Sat.Lit.t array -> 'a;
  combine : pivot:Sat.Lit.var -> 'a -> 'a -> 'a;
}

val unit_annotation : unit annotation

type 'a builder

(** [builder t ~sources spec] prepares on-demand reconstruction through
    the resolve-source lists in [sources]. *)
val builder : t -> sources:(int, int array) Hashtbl.t -> 'a annotation -> 'a builder

(** [build b id] reconstructs clause [id] (memoised in the kernel's id
    table) with an explicit work stack, so arbitrarily deep proofs cannot
    overflow the call stack.
    @raise Diagnostics.Check_failed with [Unknown_clause] or
    [Cyclic_definition] on broken DAGs. *)
val build : 'a builder -> int -> Clause_db.handle * 'a

(** {2 The empty-clause construction (Proposition 3)} *)

(** [final_chain t ~l0 ~fetch ~combine ~conflict_id] resolves the final
    conflicting clause against recorded antecedents in reverse
    chronological order down to the empty clause, checking antecedent
    validity and pivot choice at each step.  Returns the final annotation
    and the chain length. *)
val final_chain :
  t ->
  l0:Level0.t ->
  fetch:(int -> Clause_db.handle * 'a) ->
  combine:(pivot:Sat.Lit.var -> 'a -> 'a -> 'a) ->
  conflict_id:int ->
  'a * int

(** [final_chain_ids] is {!final_chain} without annotations; returns the
    chain length. *)
val final_chain_ids :
  t ->
  l0:Level0.t ->
  fetch:(int -> Clause_db.handle) ->
  conflict_id:int ->
  int

(** {2 Counters and by-products} *)

type counters = {
  clauses_built : int;       (** chain-resolved learned clauses *)
  resolution_steps : int;    (** checked pairwise resolutions *)
  merged_literals : int;     (** shared literals emitted once by merges *)
  peak_live_clauses : int;
  arena_peak_bytes : int;    (** peak arena residency, in bytes *)
}

val counters : t -> counters
val resolution_steps : t -> int

(** [built_ids t] is the sorted list of learned ids {!chain} (or
    {!record_external_chain}) has built.  The sort is memoised and
    invalidated on mutation, so per-report re-reads are O(1). *)
val built_ids : t -> int list

(** [core_ids t] is the sorted list of original clause ids materialised so
    far — the unsat core of a completed depth-first or hybrid check.
    Memoised like {!built_ids}. *)
val core_ids : t -> int list

(** [core_var_count t] counts distinct variables over the core clauses. *)
val core_var_count : t -> int
