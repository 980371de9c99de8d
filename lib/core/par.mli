(** Parallel checker: the {!Forward} replay of {!Bf} scheduled as
    topological wavefronts across OCaml domains.  Pass one also keeps
    every resolve-source list (charged to the meter until its wavefront
    commits).  Within stream windows of [window] records, each record's
    level is [1 + max (level of its sources)] (sources from earlier
    windows count as level 0), so one wavefront's chains are independent:
    worker domains replay each on a domain-local
    {!Proof.Kernel.Acc.t} against a frozen store view, and at each barrier the main thread alone
    commits the results in stream order through {!Forward.commit}.

    Window-local levelling keeps the live set equal to sequential BF's at
    every window boundary.  A failing run reports the failure with the
    smallest stream index, exactly the one {!Bf.check} stops at, so
    verdicts and diagnostics are identical at every job count. *)

(** [check ?meter ?jobs ?window formula source] checks the trace with
    [jobs] worker domains ([jobs = 1], the default, replays inline on the
    calling domain — same code path, no domains spawned).  [window]
    (default 128, clamped to at least 1) trades live-window size for
    exposed parallelism; results are identical for every value.  Pass one
    is the only trace read (tasks stay in memory), so with [first_pass]
    (closed once drained) the re-readable source is never touched.
    [io] selects the
    file backing for every cursor the check opens (default [`Auto]:
    mmap regular files, falling back to the buffered channel).
    @raise Invalid_argument when [jobs < 1]. *)
val check :
  ?meter:Harness.Meter.t ->
  ?format:Trace.Writer.format ->
  ?io:Trace.Reader.io ->
  ?jobs:int ->
  ?window:int ->
  ?first_pass:Trace.Source.t ->
  Sat.Cnf.t ->
  Trace.Reader.source ->
  (Report.t, Diagnostics.failure) result
