(** Breadth-first checker (paper §3.3): the {!Forward} replay that
    builds every learned record, frees at use count zero and reads the
    trace twice (count, then rebuild).  The checker never holds more
    clauses than the solver did while producing the trace, at the price
    of building 100% of the learned clauses (Table 2).

    The use counts are the paper's temporary file.  [`In_memory] (the
    default) keeps them in a hash table, uncharged to the meter;
    [`Temp_file chunk] writes them to a real file on disk in chunked
    counting passes of [chunk] clause ids and reads a clause's count back
    when it is rebuilt ("we may also need to break the first pass into
    several passes so that we can count the number of usages of the
    clauses in one range at a time"). *)

type counting = [ `In_memory | `Temp_file of int (* chunk size *) ]

(** [check ?first_pass f source] validates the trace.  Pass one pulls
    from [first_pass] when given (a single-shot stream — a tee of a live
    pipe, say) and from a fresh cursor over [source] otherwise; it is
    closed once drained.  Pass two (and temp-file counting) always
    re-reads [source], so when pass one came from a pipe, [source] must
    be a spooled copy of the same bytes.  [format] forces the encoding
    on every cursor the check opens (needed for magic-less binary
    traces, which auto-detection cannot classify); [io] selects the
    file backing for every cursor the check opens (default [`Auto]:
    mmap regular files, falling back to the buffered channel). *)
val check :
  ?meter:Harness.Meter.t ->
  ?format:Trace.Writer.format ->
  ?io:Trace.Reader.io ->
  ?counting:counting ->
  ?first_pass:Trace.Source.t ->
  Sat.Cnf.t ->
  Trace.Reader.source ->
  (Report.t, Diagnostics.failure) result

(** {2 Incremental pass-one ingest}

    The counting/validation pass as a push-driven state machine: the
    online validator tees the solver's live event stream straight into it
    so pass one overlaps solving.  A violation is {e recorded}, not
    raised (the solver cannot be interrupted mid-push), and later events
    are ignored — so the failure {!finish} reports is exactly the one
    the file-based [check] stops at. *)

type ingest

val ingest : ?meter:Harness.Meter.t -> Sat.Cnf.t -> ingest
val ingest_event : ingest -> Trace.Event.t -> unit
val ingest_sink : ingest -> Trace.Sink.t

(** [ingest_failed g] is the first recorded violation, if any. *)
val ingest_failed : ingest -> Diagnostics.failure option

(** [finish g source] completes pass one (header/conflict presence) and
    runs the breadth-first reconstruction pass over [source], which must
    serialise exactly the events that were ingested.  [pass_one_seconds]
    is threaded into the report (the online validator's pass one is
    interleaved with solving and reports 0). *)
val finish :
  ?format:Trace.Writer.format ->
  ?io:Trace.Reader.io ->
  ?pass_one_seconds:float ->
  ingest ->
  Trace.Reader.source ->
  (Report.t, Diagnostics.failure) result
