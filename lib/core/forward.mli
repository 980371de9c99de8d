(** The forward replay shared by every checker except depth-first
    (paper §3.3).

    Pass one validates the trace in stream order (header, no shadowed or
    duplicate ids, no forward references, no empty source lists) and, when
    asked, counts each clause's uses: one per resolve-source reference,
    one per level-0 antecedent, one for the final conflict.  Records are
    then rebuilt in stream order and committed one at a time: the chain is
    resolved, the clause is defined if it still has uses (released
    otherwise), and every source whose count drains is released through
    {!Proof.Kernel.release_id}.  The empty-clause chain closes the check,
    and {!report} builds the uniform {!Report.t}.

    A checker is a {!policy} over this loop: which records it rebuilds,
    when it frees, and how it schedules the work.

    {v
    module       builds         frees                          schedules
    Bf           all            at use count 0                 two passes
    Hybrid       reachable set  at use count 0                 two passes
    Hint         all            at a Delete record             one pass
    Window       all            at use count 0 + window spill  two passes
    Par          all            at use count 0                 wavefronts
    Proof_stats  all            never                          one pass
    v}

    Pass one validates identically under every policy, so its violations
    surface as the same {!Diagnostics.failure} whichever checker runs. *)

type t

(** What a policy decides.  [context] names the reconstruction in chain
    diagnostics; [fetch] looks up record-chain operands and [final_fetch]
    those of the empty-clause chain; [rebuild id] selects the records to
    rebuild; [settle] runs after every chain (record or final);
    [on_define] / [on_drain] see each clause defined / drained by the
    use counts; [next] runs after every committed record. *)
type policy = {
  context : string;
  fetch : int -> Proof.Clause_db.handle;
  final_fetch : int -> Proof.Clause_db.handle;
  rebuild : int -> bool;
  settle : unit -> unit;
  on_define : int -> unit;
  on_drain : int -> unit;
  next : unit -> unit;
}

(** [create formula] starts a run: a fresh kernel, level-0 table and
    validating stream.  [charge] is the stream's meter residency
    (default [`None]); [hints] accepts deletion-hint records; [count]
    (default [true]) counts uses in memory during pass one — without it
    nothing is freed by count until {!use_counts} or {!count_to_file}
    installs counts. *)
val create :
  ?meter:Harness.Meter.t ->
  ?charge:Proof.Kernel.residency ->
  ?hints:bool ->
  ?count:bool ->
  Sat.Cnf.t ->
  t

val kernel : t -> Proof.Kernel.t

(** {2 The use-count store} *)

(** [used fw id] — [id] has undrained uses. *)
val used : t -> int -> bool

(** [use_counts fw tbl] installs [tbl] (id → uses) as the store. *)
val use_counts : t -> (int, int) Hashtbl.t -> unit

(** [count_to_file fw ~chunk source] is the paper's literal temporary
    file: re-read [source] once per [chunk] clause ids, write every total
    to a file on disk, and read a clause's count back when it is rebuilt,
    so memory holds counters only for live clauses.  {!close} removes the
    file. *)
val count_to_file :
  t ->
  ?format:Trace.Writer.format ->
  ?io:Trace.Reader.io ->
  chunk:int ->
  Trace.Reader.source ->
  unit

val close : t -> unit

(** [reachable ~defs ~antes conf_id] is the reverse sweep over the
    stream-ordered definitions: the clauses reachable from the final
    conflict and the level-0 antecedents, each with its number of uses
    among them. *)
val reachable :
  defs:(int * int array) Sat.Vec.t ->
  antes:int Sat.Vec.t ->
  int ->
  (int, int) Hashtbl.t

(** {2 Pass one} *)

(** [feed fw e] validates (and counts) one event, then hands it to
    [on_event].  The first violation is recorded, never raised, and later
    events are ignored — the push entry point a live solver feeds. *)
val feed : t -> ?on_event:(Trace.Event.t -> unit) -> Trace.Event.t -> unit

val failed : t -> Diagnostics.failure option
val sink : t -> Trace.Sink.t

(** [drain fw src] feeds [src] until it ends or a violation is recorded,
    then closes it. *)
val drain : t -> ?on_event:(Trace.Event.t -> unit) -> Trace.Source.t -> unit

(** [pass_one fw ~cat src] is {!drain} under the span [cat]/[name]
    (default ["check.pass_one"]); returns its wall seconds. *)
val pass_one :
  t ->
  cat:string ->
  ?name:string ->
  ?on_event:(Trace.Event.t -> unit) ->
  Trace.Source.t ->
  float

(** [conclude fw] raises the recorded violation, then checks the header
    and final conflict were seen; returns the learned-record total and
    the final conflict id. *)
val conclude : t -> int * int

(** [conflict c] is the final conflict id.
    @raise Diagnostics.Check_failed with [Missing_final_conflict] on
    [None]. *)
val conflict : int option -> int

(** {2 The per-record commit} *)

(** [policy fw ~context] rebuilds every record, fetches through
    {!Proof.Kernel.find} (the final chain under
    ["empty-clause construction"]) and has no hooks. *)
val policy : t -> context:string -> policy

(** [commit fw p ~id ~sources h] defines [h] as [id] if it is used (with
    no use counts: always), releases it otherwise, then releases one use
    of every source. *)
val commit :
  t -> policy -> id:int -> sources:int array -> Proof.Clause_db.handle -> unit

(** [record fw p ~id ~sources] rebuilds the record's chain and commits
    it, when [p.rebuild id]. *)
val record : t -> policy -> id:int -> sources:int array -> unit

(** [final fw p conf_id] is the empty-clause chain; returns its length. *)
val final : t -> policy -> int -> int

(** [replay fw p ~cat ~pass_one_seconds source] finishes a two-pass check:
    {!conclude}, [prepare conf_id], then re-read [source] under the span
    [cat]/["check.pass_two"], recording every learned record and running
    the final chain, and return the report ([core] as in {!report}). *)
val replay :
  t ->
  policy ->
  cat:string ->
  ?format:Trace.Writer.format ->
  ?io:Trace.Reader.io ->
  ?prepare:(int -> unit) ->
  ?core:bool ->
  pass_one_seconds:float ->
  Trace.Reader.source ->
  Report.t

(** {2 The frame every checker shares} *)

(** [source ?first_pass source] is the pass-one source: [first_pass] when
    given, else a fresh cursor over [source]. *)
val source :
  ?first_pass:Trace.Source.t ->
  ?format:Trace.Writer.format ->
  ?io:Trace.Reader.io ->
  Trace.Reader.source ->
  Trace.Source.t

(** [guard run] maps [Check_failed] and [Parse_error] to [Error]. *)
val guard : (unit -> 'a) -> ('a, Diagnostics.failure) result

(** [timed ~cat name f] runs [f] under a span; returns its wall seconds. *)
val timed : cat:string -> string -> (unit -> 'a) -> 'a * float

(** [report k ~total_learned ...] reads the kernel's counters into a
    report; [core] (default [false]) includes the unsat core. *)
val report :
  ?core:bool ->
  ?jobs:int ->
  ?wavefronts:int ->
  ?max_wavefront_width:int ->
  Proof.Kernel.t ->
  total_learned:int ->
  pass_one_seconds:float ->
  pass_two_seconds:float ->
  Report.t
