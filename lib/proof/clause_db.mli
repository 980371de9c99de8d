(** Arena-backed clause store shared by every checker.

    Clauses live as packed, sorted, duplicate-free literal runs inside one
    growable [Bigarray] integer region and are addressed by integer
    handles, so the hot resolution path touches a single flat buffer
    instead of per-clause heap arrays.  Each clause carries a reference
    count; releasing the last reference returns its slot to a size-binned
    freelist for reuse.

    Every allocation is charged to the store's {!Harness.Meter} at the
    historical checker rate of [literals + 3] words per clause, so the
    simulated-memory experiments (Table 2's starred rows) keep their
    meaning, and the store additionally tracks live/peak clause counts and
    arena-resident words for {!Report}. *)

type t

(** A clause handle: the clause's offset in the arena.  Valid until the
    last reference is released. *)
type handle = int

(** Raised (debug mode only) when a clause-level accessor or {!retain}
    touches a handle whose last reference was already released. *)
exception Use_after_free of handle

(** Raised (debug mode only) when {!release} is called on a dead handle —
    the slot may already belong to the freelist or to a new clause. *)
exception Refcount_underflow of handle

(** [set_debug true] arms the lifetime guards above on every store.  Off
    by default: the checks cost one flag read per clause operation on the
    resolution hot path.  The test suite runs with them armed. *)
val set_debug : bool -> unit

val debug_enabled : unit -> bool

(** [create ?meter ?reserve ()] is an empty store.  Without [meter] a
    fresh unlimited meter is used.  [reserve] (words, default 8 Mi) sizes
    the arena's up-front virtual reservation: pages are only committed as
    the bump pointer reaches them, and if the reservation itself does not
    fit (tight [ulimit -v]) it halves until it does, after which the old
    doubling grower covers any overflow.  A store that stays within its
    reservation never relocates, which is what keeps {!freeze}d views
    stable between barriers. *)
val create : ?meter:Harness.Meter.t -> ?reserve:int -> unit -> t

val meter : t -> Harness.Meter.t

(** [reserved_words db] is the arena's current capacity in words (also
    exported as the [arena.reserved_bytes] gauge, at 8 bytes per word).
    Distinct from {!live_words}/{!peak_words}, which keep their
    historical meaning of clause-resident words — the reservation is
    address space, not clause payload, and is never double-counted. *)
val reserved_words : t -> int

(** [alloc db lits] stores [lits] sorted and duplicate-free, with an
    initial reference count of 1, and charges the meter.
    @raise Harness.Meter.Out_of_memory_simulated past the meter's limit. *)
val alloc : t -> Sat.Lit.t array -> handle

(** A run of packed literals lives in a region: the int [Bigarray] the
    arena itself is made of.  The resolution kernel reads both operands
    and writes its resolvent as (region, offset, length) runs, so store
    clauses, frozen views and worker scratch share one code path. *)
type region = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(** [make_region n] is a fresh region of [n] ints. *)
val make_region : int -> region

(** [ensure_region r n] is [r] when it holds at least [n] ints, else a
    fresh region of at least twice its size (contents not kept). *)
val ensure_region : region -> int -> region

(** [alloc_sorted db r n] stores [r.{0 .. n-1}], which must already be
    sorted, duplicate-free packed literals (a resolvent, or a clause
    reloaded from a spill file), copying it into the arena by one blit. *)
val alloc_sorted : t -> region -> int -> handle

(** [size db h] is the clause's literal count. *)
val size : t -> handle -> int

(** [lits_offset h] is where the clause's literals start in the arena
    region: clause [h] is the run
    [(ro_region (freeze db), lits_offset h, size db h)]. *)
val lits_offset : handle -> int

(** [lits db h] copies the clause out as a literal array. *)
val lits : t -> handle -> Sat.Lit.t array

val iter_lits : t -> handle -> (Sat.Lit.t -> unit) -> unit

(** [retain db h] adds a reference. *)
val retain : t -> handle -> unit

(** [release db h] drops a reference; at zero the clause's words are
    credited back to the meter and the slot is recycled. *)
val release : t -> handle -> unit

val refcount : t -> handle -> int

(** Counters threaded into {!Report}. *)

val live_clauses : t -> int
val peak_live_clauses : t -> int
val clauses_allocated : t -> int

(** [live_words db] / [peak_words db]: words currently / maximally
    resident in the arena (headers included, freelist slack excluded). *)
val live_words : t -> int
val peak_words : t -> int

(** {2 Frozen read-only views}

    A {!ro} view pins the arena region and its bump pointer at freeze
    time so worker domains can read shared clauses in place — no
    per-domain copies, no locks, no GC traffic.  The contract is the
    wavefront barrier discipline: workers only read handles that were
    live and published before {!freeze} was called, the coordinator only
    allocates into or releases from the store while no worker holds the
    view, and the view is re-frozen at every dispatch (a store that
    outgrows its reservation relocates, which invalidates older views). *)

type ro

(** [freeze db] is a constant-time snapshot view of the store. *)
val freeze : t -> ro

(** [ro_size ro h] is the clause's literal count.  In debug mode a handle
    past the frozen bump pointer raises {!Use_after_free}. *)
val ro_size : ro -> handle -> int

(** [ro_region ro] is the frozen arena region; read clause [h] in place
    as the run [(ro_region ro, lits_offset h, ro_size ro h)]. *)
val ro_region : ro -> region
