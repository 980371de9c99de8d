(* Helper for perfbench/run.py.  Two subcommands:

     pbtool gen DIR SEED NAME...
       writes DIR/NAME.cnf for each instance and prints "NAME RNG" per
       line, RNG being the Sat.Rng seed used ("-" for unseeded families).

     pbtool layers DIR NAME...
       the traced run: times each library layer in-process on
       DIR/NAME.cnf, with binary traces, and prints one JSON object per
       instance per line.

   Registry families (Gen.Families) are fixed for every seed.  The seeded
   draws below are small on purpose: random-instance hardness varies by
   a factor of three between seeds, so only a small share of each
   workload may depend on the seed if its totals are to stay steady. *)

let seeded =
  [
    ("equiv_seeded", (12, fun rng -> Gen.Equiv.miter rng ~inputs:8 ~outputs:4));
    ( "route_seeded",
      ( 23,
        fun rng ->
          Gen.Routing.channel rng ~nets:48 ~tracks:7
            ~extra_conflict_density:0.06 ) );
    ( "rand_seeded",
      (5, fun rng -> Gen.Random3sat.generate_at_ratio rng ~nvars:150 ~ratio:4.6)
    );
    (* the smoke path's counterparts *)
    ("equiv_seeded_tiny", (11, fun rng -> Gen.Equiv.miter rng ~inputs:5 ~outputs:2));
    ( "route_seeded_tiny",
      ( 23,
        fun rng ->
          Gen.Routing.channel rng ~nets:12 ~tracks:5
            ~extra_conflict_density:0.06 ) );
    ( "rand_seeded_tiny",
      (5, fun rng -> Gen.Random3sat.generate_at_ratio rng ~nvars:60 ~ratio:4.6) );
  ]

let is_unsat f =
  match fst (Solver.Cdcl.solve f) with
  | Solver.Cdcl.Unsat -> true
  | Solver.Cdcl.Sat _ -> false

(* Random 3-SAT near the threshold is satisfiable for a few percent of
   seeds; every benchmark input must be UNSAT, so a satisfiable draw moves
   on to the next candidate seed.  The miter and the planted-clique
   routing instance are UNSAT by construction. *)
let generate_seeded base gen seed =
  let rec draw k =
    let rng_seed = base + 1000 + seed + (1_000_000 * k) in
    let f = gen (Sat.Rng.create rng_seed) in
    if is_unsat f then (rng_seed, f) else draw (k + 1)
  in
  draw 0

let gen dir seed names =
  List.iter
    (fun name ->
      let rng, f =
        match List.assoc_opt name seeded with
        | Some (base, g) ->
          let s, f = generate_seeded base g seed in
          (string_of_int s, f)
        | None -> (
          match Gen.Families.find name with
          | Some fam -> ("-", fam.Gen.Families.generate ())
          | None -> failwith ("unknown instance " ^ name))
      in
      Sat.Dimacs.write_file (Filename.concat dir (name ^ ".cnf")) f;
      Printf.printf "%s %s\n" name rng)
    names

(* --- the traced run ------------------------------------------------------ *)

let cpu f =
  let t0 = Sys.time () in
  let r = f () in
  (r, Sys.time () -. t0)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* Every learned chain replayed through the kernel with all clauses kept
   resident: the kernel's cost apart from any checker's scheduling. *)
let replay f events =
  let k = Proof.Kernel.create f in
  let context = "perfbench replay" in
  let fetch id = Proof.Kernel.find k ~context id in
  let (), s =
    cpu (fun () ->
        List.iter
          (function
            | Trace.Event.Learned { id; sources } ->
              Proof.Kernel.define k id
                (Proof.Kernel.chain_ids k ~context ~fetch ~learned_id:id sources)
            | _ -> ())
          events)
  in
  (Proof.Kernel.counters k, s)

let strategies =
  [
    ("df", fun f src -> Checker.Df.check f src);
    ("bf", fun f src -> Checker.Bf.check f src);
    ("hybrid", fun f src -> Checker.Hybrid.check f src);
    ("window", fun f src -> Checker.Window.check ~window:128 f src);
    ("par", fun f src -> Checker.Par.check ~jobs:2 f src);
  ]

let check_json name (checked, s) =
  let open Checker.Report in
  match checked with
  | Error d ->
    Printf.sprintf "%S:{\"ok\":false,\"error\":%S}" name
      (Checker.Diagnostics.to_string d)
  | Ok r ->
    Printf.sprintf
      "%S:{\"ok\":true,\"s\":%.6f,\"clauses_built\":%d,\"resolution_steps\":%d,\"core\":%d,\"peak_live_clauses\":%d,\"peak_mem_words\":%d,\"arena_bytes\":%d,\"pass_one_s\":%.6f,\"pass_two_s\":%.6f,\"wavefronts\":%d,\"max_wavefront_width\":%d}"
      name s r.clauses_built r.resolution_steps
      (List.length r.core_original_ids)
      r.peak_live_clauses r.peak_mem_words r.arena_bytes_resident
      r.pass_one_seconds r.pass_two_seconds r.wavefronts r.max_wavefront_width

let fmt = Trace.Writer.Binary

let layers dir name =
  let settle () = Gc.compact () in
  let path ext = Filename.concat dir (name ^ ext) in
  let text = read_file (path ".cnf") in
  let f, parse_s = cpu (fun () -> Sat.Dimacs.parse_string text) in
  settle ();
  let (result, st), solve_s =
    cpu (fun () -> Solver.Cdcl.solve ~trace:Trace.Sink.null f)
  in
  (match result with
   | Solver.Cdcl.Unsat -> ()
   | Solver.Cdcl.Sat _ -> failwith (name ^ ": not UNSAT"));
  settle ();
  let w = Trace.Writer.create fmt in
  let _, solve_traced_s =
    cpu (fun () -> Solver.Cdcl.solve ~trace:(Trace.Writer.as_sink w) f)
  in
  let trace = Trace.Writer.contents w in
  let events = Trace.Reader.to_list (Trace.Reader.From_string trace) in
  let records = List.length events in
  settle ();
  let w2 = Trace.Writer.create fmt in
  let (), encode_s = cpu (fun () -> List.iter (Trace.Writer.emit w2) events) in
  let encode_same = Trace.Writer.contents w2 = trace in
  settle ();
  let decoded = ref 0 in
  let (), decode_s =
    cpu (fun () ->
        Trace.Reader.iter (Trace.Reader.From_string trace) (fun _ -> incr decoded))
  in
  settle ();
  let lint, lint_s =
    cpu (fun () -> Analysis.Lint.run ~formula:f (Trace.Reader.From_string trace))
  in
  settle ();
  let rc, replay_s = replay f events in
  settle ();
  let trc = path ".lay.trc" in
  write_file trc trace;
  let checks =
    List.map
      (fun (sname, check) ->
        let c = cpu (fun () -> check f (Trace.Reader.From_file trc)) in
        settle ();
        check_json sname c)
      strategies
  in
  let v2 = path ".lay.v2" in
  let hinted =
    let hw = Trace.Writer.create ~version:2 fmt in
    match Analysis.Dag.hint (Trace.Reader.From_file trc) hw with
    | Ok _ ->
      Trace.Writer.to_file hw v2;
      check_json "hint" (cpu (fun () -> Checker.Hint.check f (Trace.Reader.From_file v2)))
    | Error e -> Printf.sprintf "\"hint\":{\"ok\":false,\"error\":%S}" e.Analysis.Dag.message
  in
  Printf.printf
    "{\"name\":%S,\"cnf_bytes\":%d,\"parse_s\":%.6f,\"solve_s\":%.6f,\"conflicts\":%d,\"propagations\":%d,\"decisions\":%d,\"restarts\":%d,\"learned_clauses\":%d,\"learned_literals\":%d,\"solve_traced_s\":%.6f,\"trace_bytes\":%d,\"trace_md5\":%S,\"records\":%d,\"encode_s\":%.6f,\"encode_same\":%b,\"decoded\":%d,\"decode_s\":%.6f,\"lint_s\":%.6f,\"lint_clean\":%b,\"replay_s\":%.6f,\"replay_built\":%d,\"replay_steps\":%d,\"replay_merged\":%d,\"replay_arena_peak\":%d,\"replay_peak_live\":%d,\"checks\":{%s}}\n%!"
    name (String.length text) parse_s solve_s st.conflicts st.propagations
    st.decisions st.restarts st.learned_clauses st.learned_literals
    solve_traced_s (String.length trace)
    (Digest.to_hex (Digest.string trace))
    records encode_s encode_same !decoded decode_s lint_s
    (Analysis.Lint.clean lint) replay_s rc.Proof.Kernel.clauses_built
    rc.resolution_steps rc.merged_literals rc.arena_peak_bytes rc.peak_live_clauses
    (String.concat "," (checks @ [ hinted ]));
  List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ trc; v2 ]

let () =
  match Array.to_list Sys.argv with
  | _ :: "gen" :: dir :: seed :: names -> gen dir (int_of_string seed) names
  | _ :: "layers" :: dir :: names -> List.iter (layers dir) names
  | _ ->
    prerr_endline "usage: pbtool gen DIR SEED NAME... | pbtool layers DIR NAME...";
    exit 2
