(** Hybrid checker — the paper's §5 future work: the {!Forward} replay
    restricted to the clauses reachable from the final conflict, freeing
    at use count zero.  Pass one keeps only the resolve-source id lists
    (charged to the meter); a reverse sweep over them gives the reachable
    set and its use counts, the lists are released, and pass two rebuilds
    only that set.  It builds depth-first's Built% (and reports the same
    kind of unsat core) at close to breadth-first's live window. *)

(** [check ?first_pass f source] — pass one pulls from [first_pass] when
    given (closed once drained), pass two always re-reads [source]; a
    piped pass one therefore needs [source] to be a spooled copy.
    [io] selects the
    file backing for every cursor the check opens (default [`Auto]:
    mmap regular files, falling back to the buffered channel). *)
val check :
  ?meter:Harness.Meter.t ->
  ?format:Trace.Writer.format ->
  ?io:Trace.Reader.io ->
  ?first_pass:Trace.Source.t ->
  Sat.Cnf.t ->
  Trace.Reader.source ->
  (Report.t, Diagnostics.failure) result
