(** Result of a successful check, carrying the statistics the paper's
    Table 2 reports per checker, plus the unsatisfiable-core by-product of
    the depth-first traversal (§3.2, §4). *)

type t = {
  clauses_built : int;
      (** learned clauses whose literals were actually constructed —
          Table 2's "Num. Cls Built" *)
  total_learned : int;
      (** learned clauses recorded in the trace *)
  resolution_steps : int;
      (** checked resolution operations performed *)
  core_original_ids : int list;
      (** original clause IDs (1-based) involved in the proof; exact for
          the depth-first checker, and the empty list for breadth-first,
          which does not track the core (the paper presents the core as a
          DF by-product) *)
  learned_built_ids : int list;
      (** IDs of the learned clauses the checker constructed — for the
          depth-first checker this is exactly the proof-relevant set *)
  core_vars : int;
      (** distinct variables among the core clauses *)
  peak_mem_words : int;
      (** simulated peak memory, from {!Harness.Meter} *)
  peak_live_clauses : int;
      (** most clauses simultaneously live in the shared clause store *)
  arena_bytes_resident : int;
      (** peak clause-store arena residency, in bytes *)
  jobs : int;
      (** worker domains that replayed resolutions — 1 for the
          sequential checkers *)
  wavefronts : int;
      (** topological levels the parallel schedule replayed; 0 for the
          sequential checkers *)
  max_wavefront_width : int;
      (** learned clauses in the widest wavefront — an upper bound on
          exploitable parallelism; 0 for the sequential checkers *)
  pass_one_seconds : float;
      (** wall-clock seconds spent in pass one (counting / loading) *)
  pass_two_seconds : float;
      (** wall-clock seconds spent in pass two (reconstruction and the
          empty-clause chain) *)
}

(** [built_ratio r] is Table 2's "Built%" — constructed learned clauses
    over total learned clauses ([1.0] when nothing was learned). *)
val built_ratio : t -> float

(** [pp] prints every reproducible statistic; elapsed seconds are
    deliberately omitted so checker output can be diffed across runs. *)
val pp : Format.formatter -> t -> unit

(** [to_json r] renders the same reproducible statistics (no elapsed
    seconds) as one deterministic JSON object with a stable field order —
    the payload behind [rescheck check --json]. *)
val to_json : t -> string

(** [observe r] publishes the report's scalar statistics as telemetry
    gauges ([checker.*] plus the [par.*] schedule shape) so the run
    profile carries them under the same schema for every checker.  No-op
    when telemetry is off. *)
val observe : t -> unit
