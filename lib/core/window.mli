(** Window-shifting checker: the {!Forward} replay of {!Bf} that also
    evicts the arena every [window] learned records.  Live learned clauses
    spill through a frozen view ({!Proof.Clause_db.freeze}) to a temp file
    and reload transiently for the one chain that needs them; materialised
    originals simply drop.  The arena never holds more than [window]
    learned clauses plus one chain's operands, and everything the checker
    reports is identical to {!Bf.check}. *)

(** Per-run scheduler counters, also exported (with observability on)
    as the [window.resident_clauses] ([max_resident]),
    [window.spilled_clauses] ([spilled]) and [window.reloaded_clauses]
    ([reloaded]) gauges. *)
type stats = {
  windows : int;      (** boundaries crossed *)
  spilled : int;      (** learned clauses written to the spill file *)
  reloaded : int;     (** transient reloads from the spill file *)
  max_resident : int; (** high-water arena-resident learned clauses —
                          never exceeds the configured window size *)
}

(** [check ~window formula source] checks the trace with window-shifted
    reconstruction; [on_stats] receives the scheduler counters just
    before the verdict is returned (on failures too).
    @raise Invalid_argument when [window < 1]; pass [max_int] for an
    unbounded window (plain breadth-first scheduling). *)
val check :
  ?meter:Harness.Meter.t ->
  ?format:Trace.Writer.format ->
  ?io:Trace.Reader.io ->
  ?first_pass:Trace.Source.t ->
  ?on_stats:(stats -> unit) ->
  window:int ->
  Sat.Cnf.t ->
  Trace.Reader.source ->
  (Report.t, Diagnostics.failure) result
