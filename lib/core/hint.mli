(** Hinted one-pass checker (trace format version 2): the {!Forward}
    replay that rebuilds every record inside the validating pass and
    frees a clause at its [Event.Delete] hint, so the trace is read once.
    A wrong hint fails with a positioned {!Diagnostics.Bad_delete_hint}
    and never changes a verdict; a version-1 trace is accepted and simply
    never frees. *)

(** [check formula source] validates the trace in a single forward pass.
    With [first_pass] the events are drained from that source instead of
    decoding [source] — the whole check rides an already-open tee'd
    parse, and [source] is never read.  The report matches {!Bf.check}
    field for field (every learned clause built, empty core); the whole
    pass is charged to [pass_one_seconds].
    @raise nothing — failures are returned, parse errors included. *)
val check :
  ?meter:Harness.Meter.t ->
  ?format:Trace.Writer.format ->
  ?io:Trace.Reader.io ->
  ?first_pass:Trace.Source.t ->
  Sat.Cnf.t ->
  Trace.Reader.source ->
  (Report.t, Diagnostics.failure) result
