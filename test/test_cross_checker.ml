(* Cross-checker property test: on fuzzed UNSAT instances all the
   checkers ride the same kernel, so they must all accept every valid
   trace and their statistics must line up — BF builds exactly the total
   learned set, the hybrid's built set sandwiches between DF's and BF's,
   DF's unsat core is contained in the hybrid's, resolution-step counts
   grow monotonically with the built sets, and the parallel wavefront
   checker, the hinted one-pass checker (on the plain trace and on its
   hinted rewrite) and the window scheduler at every window size are all
   bit-identical to BF — a seven-way agreement matrix. *)

let module_name = "cross-checker"

let subset a b =
  let tbl = Hashtbl.create 64 in
  List.iter (fun x -> Hashtbl.replace tbl x ()) b;
  List.for_all (Hashtbl.mem tbl) a

let check_instance ~round f trace =
  let src = Trace.Reader.From_string trace in
  let get name check =
    match check f src with
    | Ok r -> r
    | Error d ->
      Alcotest.failf "round %d: %s rejected a valid trace: %s" round name
        (Checker.Diagnostics.to_string d)
  in
  let df = get "DF" (fun f src -> Checker.Df.check f src) in
  let bf = get "BF" (fun f src -> Checker.Bf.check f src) in
  let hy = get "Hybrid" (fun f src -> Checker.Hybrid.check f src) in
  let ck name = Printf.sprintf "round %d: %s" round name in
  (* the trace is one fixed artefact: every checker sees the same count *)
  Alcotest.check Alcotest.int (ck "df/bf learned") df.Checker.Report.total_learned
    bf.Checker.Report.total_learned;
  Alcotest.check Alcotest.int (ck "df/hy learned") df.Checker.Report.total_learned
    hy.Checker.Report.total_learned;
  (* breadth-first always builds 100% of the learned clauses *)
  Alcotest.check Alcotest.int (ck "bf builds all") bf.total_learned
    bf.clauses_built;
  Alcotest.check Alcotest.int (ck "bf built ids exhaustive") bf.total_learned
    (List.length bf.learned_built_ids);
  (* the hybrid's needed set sandwiches between DF's exact set and BF's
     everything *)
  if not (df.clauses_built <= hy.clauses_built) then
    Alcotest.failf "round %d: df built %d > hybrid built %d" round
      df.clauses_built hy.clauses_built;
  if not (hy.clauses_built <= bf.clauses_built) then
    Alcotest.failf "round %d: hybrid built %d > bf built %d" round
      hy.clauses_built bf.clauses_built;
  if not (subset df.learned_built_ids hy.learned_built_ids) then
    Alcotest.failf "round %d: df built a clause the hybrid did not" round;
  (* resolution work grows with the built set *)
  if not
       (df.resolution_steps <= hy.resolution_steps
       && hy.resolution_steps <= bf.resolution_steps)
  then
    Alcotest.failf "round %d: steps not monotonic (df %d, hy %d, bf %d)"
      round df.resolution_steps hy.resolution_steps bf.resolution_steps;
  (* cores: DF's exact core inside the hybrid's; BF does not track one *)
  if df.core_original_ids = [] then
    Alcotest.failf "round %d: df core is empty" round;
  if not (subset df.core_original_ids hy.core_original_ids) then
    Alcotest.failf "round %d: df core not within hybrid core" round;
  Alcotest.check (Alcotest.list Alcotest.int) (ck "bf has no core") []
    bf.core_original_ids;
  (* the parallel checker replays BF's schedule as wavefronts: identical
     verdict, counters, built set and (empty) core at every job count *)
  List.iter
    (fun jobs ->
      let pr = get (Printf.sprintf "Par j%d" jobs)
          (fun f src -> Checker.Par.check ~jobs f src)
      in
      let pk name = ck (Printf.sprintf "par j%d %s" jobs name) in
      Alcotest.check Alcotest.int (pk "learned") bf.total_learned
        pr.Checker.Report.total_learned;
      Alcotest.check Alcotest.int (pk "built") bf.clauses_built
        pr.Checker.Report.clauses_built;
      Alcotest.check Alcotest.int (pk "steps") bf.resolution_steps
        pr.Checker.Report.resolution_steps;
      Alcotest.check (Alcotest.list Alcotest.int) (pk "built ids")
        bf.learned_built_ids pr.Checker.Report.learned_built_ids;
      Alcotest.check (Alcotest.list Alcotest.int) (pk "core") []
        pr.Checker.Report.core_original_ids;
      Alcotest.check Alcotest.int (pk "jobs echoed") jobs
        pr.Checker.Report.jobs;
      if pr.Checker.Report.total_learned > 0 && pr.Checker.Report.wavefronts < 1
      then Alcotest.failf "%s: no wavefronts reported" (pk "wavefronts"))
    [ 1; 2; 4 ];
  (* the hinted one-pass checker accepts a plain (version-1) trace too —
     it simply never frees — and must land exactly on BF's report *)
  let bf_identical name r =
    let rk field = ck (Printf.sprintf "%s %s" name field) in
    Alcotest.check Alcotest.int (rk "learned") bf.total_learned
      r.Checker.Report.total_learned;
    Alcotest.check Alcotest.int (rk "built") bf.clauses_built
      r.Checker.Report.clauses_built;
    Alcotest.check Alcotest.int (rk "steps") bf.resolution_steps
      r.Checker.Report.resolution_steps;
    Alcotest.check (Alcotest.list Alcotest.int) (rk "built ids")
      bf.learned_built_ids r.Checker.Report.learned_built_ids;
    Alcotest.check (Alcotest.list Alcotest.int) (rk "core") []
      r.Checker.Report.core_original_ids
  in
  bf_identical "hint" (get "Hint" (fun f src -> Checker.Hint.check f src));
  (* ...and the hinted rewrite of the same trace reaches the same report *)
  let hinted =
    let w = Trace.Writer.create ~version:2 Trace.Writer.Ascii in
    match Analysis.Dag.hint src w with
    | Ok _ -> Trace.Reader.From_string (Trace.Writer.contents w)
    | Error e ->
      Alcotest.failf "round %d: hint converter refused: %s" round
        e.Analysis.Dag.message
  in
  bf_identical "hint/v2"
    (get "Hint/v2" (fun f _ -> Checker.Hint.check f hinted));
  (* the window scheduler is invisible at every window size *)
  List.iter
    (fun window ->
      bf_identical
        (Printf.sprintf "window %d" window)
        (get
           (Printf.sprintf "Window %d" window)
           (fun f src -> Checker.Window.check ~window f src)))
    [ 1; 7; max_int ]

let fuzzed_agreement ~pre ~seed ~target () =
  let rng = Sat.Rng.create seed in
  let unsat_seen = ref 0 in
  let round = ref 0 in
  (* fuzz formulas until [target] UNSAT instances have been cross-checked *)
  while !unsat_seen < target && !round < 2000 do
    incr round;
    let nvars = 3 + Sat.Rng.int rng 10 in
    let nclauses = 1 + Sat.Rng.int rng (5 * nvars) in
    let f =
      if Sat.Rng.bool rng then
        Helpers.random_messy_cnf rng ~nvars ~nclauses
      else Gen.Random3sat.generate rng ~nvars ~nclauses:(min nclauses (6 * nvars))
    in
    let result, _stats, trace = Pipeline.Validate.solve_with_trace ~pre f in
    match result with
    | Solver.Cdcl.Sat _ -> ()
    | Solver.Cdcl.Unsat ->
      incr unsat_seen;
      check_instance ~round:!round f trace
  done;
  if !unsat_seen < target then
    Alcotest.failf "only %d unsat instances in %d rounds" !unsat_seen !round

let test_fuzzed_agreement () = fuzzed_agreement ~pre:false ~seed:424242 ~target:50 ()

(* same matrix on preprocessed runs: the trace opens with the
   simplifier's derivation records and still checks against the original
   formula under every strategy *)
let test_fuzzed_agreement_pre () =
  fuzzed_agreement ~pre:true ~seed:424243 ~target:30 ()

(* --- the rejection half ---------------------------------------------------- *)

(* Each corruption of a php_4 trace must be refused identically by every
   forward policy: hint (on the version-1 trace), window at every size and
   par at every job count return a failure structurally equal to BF's,
   and the hybrid rejects too.  Hint names its own reconstruction in
   chain diagnostics, so its expected failure is BF's with that one
   context string swapped. *)

let with_context context (d : Checker.Diagnostics.failure) =
  let swap c = if c = "breadth-first reconstruction" then context else c in
  match d with
  | No_clash r -> Checker.Diagnostics.No_clash { r with context = swap r.context }
  | Multiple_clash r ->
    Checker.Diagnostics.Multiple_clash { r with context = swap r.context }
  | Unknown_clause r ->
    Checker.Diagnostics.Unknown_clause { r with context = swap r.context }
  | d -> d

(* the literals of every clause the valid trace defines, by id *)
let clause_table f events =
  let k = Proof.Kernel.create f in
  let context = "test replay" in
  let lits = Hashtbl.create 256 in
  for id = 1 to Sat.Cnf.nclauses f do
    Hashtbl.replace lits id
      (Proof.Clause_db.lits (Proof.Kernel.db k) (Proof.Kernel.find k ~context id))
  done;
  List.iter
    (function
      | Trace.Event.Learned { id; sources } ->
        let h =
          Proof.Kernel.chain_ids k ~context
            ~fetch:(Proof.Kernel.find k ~context)
            ~learned_id:id sources
        in
        Proof.Kernel.define k id h;
        Hashtbl.replace lits id (Proof.Clause_db.lits (Proof.Kernel.db k) h)
      | _ -> ())
    events;
  lits

let clashes a b =
  Array.fold_left
    (fun n l -> if Array.mem (Sat.Lit.negate l) b then n + 1 else n)
    0 a

let corruptions () =
  let f, events = Helpers.unsat_with_events () in
  let learned =
    List.filter_map
      (function Trace.Event.Learned { id; sources } -> Some (id, sources) | _ -> None)
      events
  in
  let last_id = fst (List.nth learned (List.length learned - 1)) in
  (* the victim: the last record the proof really needs that has a later
     record to reference forward *)
  let needed =
    match Checker.Df.check f (Helpers.events_to_source events) with
    | Ok r -> r.Checker.Report.learned_built_ids
    | Error d ->
      Alcotest.failf "df rejected the valid trace: %s"
        (Checker.Diagnostics.to_string d)
  in
  let victim, victim_sources =
    List.find
      (fun (id, _) -> id <> last_id && List.mem id needed)
      (List.rev learned)
  in
  let with_sources sources =
    List.map
      (function
        | Trace.Event.Learned { id; _ } when id = victim ->
          Trace.Event.Learned { id; sources }
        | e -> e)
      events
  in
  (* two clauses defined before the victim that clash on two variables *)
  let multi =
    let lits = clause_table f events in
    let before =
      List.init (Sat.Cnf.nclauses f) (fun i -> i + 1)
      @ List.filter_map
          (fun (id, _) -> if id < victim then Some id else None)
          learned
    in
    let pair =
      List.find_map
        (fun a ->
          List.find_map
            (fun b ->
              if clashes (Hashtbl.find lits a) (Hashtbl.find lits b) >= 2 then
                Some [| a; b |]
              else None)
            before)
        before
    in
    match pair with
    | Some p -> p
    | None -> Alcotest.fail "no multiple-clash pair before the victim"
  in
  [
    ("dangling source", with_sources [| victim_sources.(0); 1_000_000 |]);
    ("no-clash pair", with_sources [| victim_sources.(0); victim_sources.(0) |]);
    ("multiple-clash pair", with_sources multi);
    ("forward reference", with_sources [| victim_sources.(0); last_id |]);
    ( "missing final conflict",
      List.filter
        (function Trace.Event.Final_conflict _ -> false | _ -> true)
        events );
    ( "final literal not false",
      List.map
        (function
          | Trace.Event.Level0 v -> Trace.Event.Level0 { v with value = not v.value }
          | e -> e)
        events );
  ]
  |> List.map (fun (name, events) -> (name, f, Helpers.events_to_source events))

let test_rejection_matrix () =
  List.iter
    (fun (name, f, src) ->
      let refused who = function
        | Ok _ -> Alcotest.failf "%s: %s accepted the corrupted trace" name who
        | Error d -> d
      in
      let bf = refused "BF" (Checker.Bf.check f src) in
      let same who expected r =
        let d = refused who r in
        if d <> expected then
          Alcotest.failf "%s: %s fails with %s, BF with %s" name who
            (Checker.Diagnostics.to_string d)
            (Checker.Diagnostics.to_string expected)
      in
      same "hint"
        (with_context "hinted one-pass reconstruction" bf)
        (Checker.Hint.check f src);
      List.iter
        (fun window ->
          same
            (Printf.sprintf "window %d" window)
            bf
            (Checker.Window.check ~window f src))
        [ 1; 7; max_int ];
      List.iter
        (fun jobs ->
          same (Printf.sprintf "par j%d" jobs) bf (Checker.Par.check ~jobs f src))
        [ 1; 2; 4 ];
      ignore (refused "hybrid" (Checker.Hybrid.check f src)))
    (corruptions ())

let suite =
  [
    ( module_name,
      [
        Alcotest.test_case "fuzzed agreement x50" `Quick test_fuzzed_agreement;
        Alcotest.test_case "fuzzed agreement x30 (pre)" `Quick
          test_fuzzed_agreement_pre;
        Alcotest.test_case "rejection matrix" `Quick test_rejection_matrix;
      ] );
  ]
