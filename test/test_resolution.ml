(* Tests for the shared resolution kernel's sorted-merge resolution and
   the arena-backed clause store beneath it, including agreement with the
   reference Clause.resolve. *)

let kernel () = Proof.Kernel.create (Sat.Cnf.create 64)

let resolve k c1 c2 =
  Proof.Kernel.resolve_lits k ~context:"test" ~c1_id:1 ~c2_id:2 c1 c2

let sorted c = List.sort Int.compare (Sat.Clause.to_ints c)

let test_basic () =
  let k = kernel () in
  let r, pivot =
    resolve k (Sat.Clause.of_ints [ 1; 2 ]) (Sat.Clause.of_ints [ -2; 3 ])
  in
  Alcotest.check Alcotest.int "pivot" 2 pivot;
  Alcotest.check (Alcotest.list Alcotest.int) "resolvent" [ 1; 3 ] (sorted r)

let test_dedup () =
  let k = kernel () in
  let r, _ =
    resolve k (Sat.Clause.of_ints [ 1; 3; 5 ]) (Sat.Clause.of_ints [ -1; 3; 5 ])
  in
  Alcotest.check (Alcotest.list Alcotest.int) "shared literals once"
    [ 3; 5 ] (sorted r)

let test_empty_resolvent () =
  let k = kernel () in
  let r, _ = resolve k (Sat.Clause.of_ints [ 9 ]) (Sat.Clause.of_ints [ -9 ]) in
  Alcotest.check Alcotest.int "empty" 0 (Array.length r)

let expect_failure f pred name =
  try
    ignore (f ());
    Alcotest.failf "%s: no failure raised" name
  with Checker.Diagnostics.Check_failed d ->
    if not (pred d) then
      Alcotest.failf "%s: wrong diagnostic %s" name
        (Checker.Diagnostics.to_string d)

let test_no_clash () =
  let k = kernel () in
  expect_failure
    (fun () -> resolve k (Sat.Clause.of_ints [ 1; 2 ]) (Sat.Clause.of_ints [ 2; 3 ]))
    (function Checker.Diagnostics.No_clash _ -> true | _ -> false)
    "no clash"

let test_multiple_clash () =
  let k = kernel () in
  expect_failure
    (fun () ->
      resolve k (Sat.Clause.of_ints [ 1; 2; 5 ]) (Sat.Clause.of_ints [ -1; -2 ]))
    (function
      | Checker.Diagnostics.Multiple_clash m -> m.vars = [ 1; 2 ]
      | _ -> false)
    "multiple clash"

let test_kernel_reuse () =
  (* scratch state from earlier rounds must not leak *)
  let k = kernel () in
  ignore (resolve k (Sat.Clause.of_ints [ 1; 2 ]) (Sat.Clause.of_ints [ -2; 3 ]));
  let r, _ =
    resolve k (Sat.Clause.of_ints [ 4; 5 ]) (Sat.Clause.of_ints [ -5; 6 ])
  in
  Alcotest.check (Alcotest.list Alcotest.int) "second round clean" [ 4; 6 ]
    (sorted r)

(* chain over pre-allocated store clauses, watching the step counter *)
let chain_over k clauses ids ~learned_id =
  let db = Proof.Kernel.db k in
  let handles =
    Array.map (fun c -> Proof.Clause_db.alloc db c) clauses
  in
  let before = Proof.Kernel.resolution_steps k in
  let h =
    Proof.Kernel.chain_ids k ~context:"test"
      ~fetch:(fun i -> handles.(i))
      ~learned_id ids
  in
  (Proof.Clause_db.lits db h, Proof.Kernel.resolution_steps k - before)

let test_chain_single () =
  let k = kernel () in
  let c, steps =
    chain_over k [| [||]; Sat.Clause.of_ints [ 1; 2 ] |] [| 1 |] ~learned_id:9
  in
  Alcotest.check Alcotest.int "no steps" 0 steps;
  Alcotest.check (Alcotest.list Alcotest.int) "clause itself" [ 1; 2 ] (sorted c)

let test_chain_sequence () =
  (* (1 2)(−2 3)(−3 4) chains to (1 4) in two steps *)
  let k = kernel () in
  let c, steps =
    chain_over k
      [| [||]; Sat.Clause.of_ints [ 1; 2 ]; Sat.Clause.of_ints [ -2; 3 ];
         Sat.Clause.of_ints [ -3; 4 ] |]
      [| 1; 2; 3 |] ~learned_id:9
  in
  Alcotest.check Alcotest.int "two steps" 2 steps;
  Alcotest.check (Alcotest.list Alcotest.int) "chained resolvent" [ 1; 4 ]
    (sorted c)

let test_chain_empty_sources () =
  let k = kernel () in
  expect_failure
    (fun () ->
      Proof.Kernel.chain_ids k ~context:"test"
        ~fetch:(fun _ -> Alcotest.fail "unexpected fetch")
        ~learned_id:7 [||])
    (function Checker.Diagnostics.Empty_source_list 7 -> true | _ -> false)
    "empty sources"

(* --- the clause store ---------------------------------------------------- *)

let test_db_sorts_and_dedups () =
  let db = Proof.Clause_db.create () in
  let h = Proof.Clause_db.alloc db (Sat.Clause.of_ints [ 3; -1; 3; 2; -1 ]) in
  Alcotest.check (Alcotest.list Alcotest.int) "sorted, duplicate-free"
    [ -1; 2; 3 ]
    (sorted (Proof.Clause_db.lits db h));
  (* both phases of a variable are distinct literals and are kept *)
  let t = Proof.Clause_db.alloc db (Sat.Clause.of_ints [ 1; -1 ]) in
  Alcotest.check Alcotest.int "tautology keeps both phases" 2
    (Proof.Clause_db.size db t)

let test_db_refcount_and_reuse () =
  let db = Proof.Clause_db.create () in
  let h = Proof.Clause_db.alloc db (Sat.Clause.of_ints [ 1; 2; 3 ]) in
  Proof.Clause_db.retain db h;
  Alcotest.check Alcotest.int "refcount after retain" 2
    (Proof.Clause_db.refcount db h);
  Proof.Clause_db.release db h;
  Alcotest.check Alcotest.int "still live" 1 (Proof.Clause_db.live_clauses db);
  Proof.Clause_db.release db h;
  Alcotest.check Alcotest.int "drained" 0 (Proof.Clause_db.live_clauses db);
  (* a same-capacity allocation reuses the freed slot *)
  let h' = Proof.Clause_db.alloc db (Sat.Clause.of_ints [ 4; 5; 6 ]) in
  Alcotest.check Alcotest.int "slot recycled" h h';
  Alcotest.check Alcotest.int "peak live" 1 (Proof.Clause_db.peak_live_clauses db)

let test_db_meter_accounting () =
  let meter = Harness.Meter.create () in
  let db = Proof.Clause_db.create ~meter () in
  let h = Proof.Clause_db.alloc db (Sat.Clause.of_ints [ 1; 2 ]) in
  (* historical checker rate: literals + 3 words *)
  Alcotest.check Alcotest.int "charged" 5 (Harness.Meter.live_words meter);
  Proof.Clause_db.release db h;
  Alcotest.check Alcotest.int "credited" 0 (Harness.Meter.live_words meter);
  Alcotest.check Alcotest.int "peak" 5 (Harness.Meter.peak_words meter)

let test_db_grows () =
  let db = Proof.Clause_db.create () in
  (* push well past the initial arena capacity *)
  let handles =
    List.init 500 (fun i ->
        Proof.Clause_db.alloc db (Sat.Clause.of_ints [ i + 1; -(i + 2); i + 3 ]))
  in
  List.iteri
    (fun i h ->
      Alcotest.check (Alcotest.list Alcotest.int)
        (Printf.sprintf "clause %d intact" i)
        (List.sort Int.compare [ i + 1; -(i + 2); i + 3 ])
        (sorted (Proof.Clause_db.lits db h)))
    handles

(* Agreement with the reference implementation on random pairs, in all
   three outcomes of the side condition: no clash, one clash (the
   resolvent), several clashes (the clashing variables).  Operands may
   repeat literals or hold both phases of a variable. *)
let prop_matches_reference =
  Helpers.qtest ~count:500 "kernel = Clause.resolve"
    QCheck.(small_int)
    (fun seed ->
      let rng = Sat.Rng.create seed in
      let nvars = 6 in
      let clause () =
        Array.init (Sat.Rng.int rng 6) (fun _ ->
            Sat.Lit.make (1 + Sat.Rng.int rng nvars) (Sat.Rng.bool rng))
      in
      let c1 = clause () in
      let c2 = clause () in
      let k = Proof.Kernel.create (Sat.Cnf.create nvars) in
      match
        ( Sat.Clause.clashing_vars c1 c2,
          Proof.Kernel.resolve_lits k ~context:"qc" ~c1_id:1 ~c2_id:2 c1 c2 )
      with
      | [ v ], (r, pivot) ->
        pivot = v && sorted r = sorted (Sat.Clause.resolve c1 c2 v)
      | _, _ -> false
      | exception Checker.Diagnostics.Check_failed (No_clash n) ->
        Sat.Clause.clashing_vars c1 c2 = []
        && Array.to_list n.c1 = List.sort_uniq Int.compare (Array.to_list c1)
        && Array.to_list n.c2 = List.sort_uniq Int.compare (Array.to_list c2)
      | exception Checker.Diagnostics.Check_failed (Multiple_clash m) ->
        m.vars = Sat.Clause.clashing_vars c1 c2
        && List.length m.vars > 1)

(* Chain oracle: [Kernel.chain_ids] against a left fold of the reference
   [Clause.resolve] over random chains of 2..8 clauses.  Steps usually
   resolve on a literal of the running clause, sometimes not; clauses may
   repeat literals or hold both phases of a variable, which the store
   keeps.  The final clause, the step and merge counters, and a failing
   step's diagnostic (with the [c1_id] convention: the first source, then
   the learned id) must all agree. *)
let uniq c = Array.of_list (List.sort_uniq Int.compare (Array.to_list c))

let prop_chain_matches_fold =
  Helpers.qtest ~count:500 "chain = fold of Clause.resolve"
    QCheck.(small_int)
    (fun seed ->
      let rng = Sat.Rng.create seed in
      let nvars = 6 in
      let lit () = Sat.Lit.make (1 + Sat.Rng.int rng nvars) (Sat.Rng.bool rng) in
      let random () = Array.init (Sat.Rng.int rng 5) (fun _ -> lit ()) in
      let n = 2 + Sat.Rng.int rng 7 in
      (* sources, generated against the reference running clause *)
      let clauses = Array.make n [||] in
      clauses.(0) <- random ();
      let cur = ref (uniq clauses.(0)) in
      for i = 1 to n - 1 do
        let c =
          if Array.length !cur > 0 && Sat.Rng.int rng 4 > 0 then
            Array.append
              [| Sat.Lit.negate !cur.(Sat.Rng.int rng (Array.length !cur)) |]
              (Array.init (Sat.Rng.int rng 3) (fun _ -> lit ()))
          else random ()
        in
        clauses.(i) <- c;
        match Sat.Clause.clashing_vars !cur c with
        | [ v ] -> cur := uniq (Sat.Clause.resolve !cur c v)
        | _ -> ()
      done;
      let k = Proof.Kernel.create (Sat.Cnf.create nvars) in
      let db = Proof.Kernel.db k in
      let handles = Array.map (Proof.Clause_db.alloc db) clauses in
      let learned_id = 100 in
      (* the reference fold, stopping at the first failing step *)
      let cur = ref (uniq clauses.(0)) and merges = ref 0 in
      let failure = ref None and i = ref 1 in
      while !failure = None && !i < n do
        let c = uniq clauses.(!i) in
        let c1_id = if !i = 1 then 0 else learned_id in
        (match Sat.Clause.clashing_vars !cur c with
         | [ v ] ->
           Array.iter
             (fun l ->
               if Sat.Lit.var l <> v && Array.mem l !cur then incr merges)
             c;
           cur := uniq (Sat.Clause.resolve !cur c v)
         | [] -> failure := Some (`No_clash (c1_id, !i, !cur, c))
         | vars -> failure := Some (`Multiple (c1_id, !i, vars)));
        incr i
      done;
      let before = Proof.Kernel.counters k in
      match
        Proof.Kernel.chain_ids k ~context:"qc"
          ~fetch:(fun id -> handles.(id))
          ~learned_id (Array.init n Fun.id)
      with
      | h ->
        let after = Proof.Kernel.counters k in
        !failure = None
        && Proof.Clause_db.lits db h = !cur
        && after.resolution_steps - before.resolution_steps = n - 1
        && after.merged_literals - before.merged_literals = !merges
      | exception Checker.Diagnostics.Check_failed (No_clash d) -> (
        match !failure with
        | Some (`No_clash (c1_id, c2_id, c1, c2)) ->
          d.c1_id = c1_id && d.c2_id = c2_id && d.c1 = c1 && d.c2 = c2
        | _ -> false)
      | exception Checker.Diagnostics.Check_failed (Multiple_clash d) -> (
        match !failure with
        | Some (`Multiple (c1_id, c2_id, vars)) ->
          d.c1_id = c1_id && d.c2_id = c2_id && d.vars = vars
        | _ -> false))

let test_chain_allocates_once () =
  (* intermediates never reach the arena: one clause per chain *)
  let k = kernel () in
  let db = Proof.Kernel.db k in
  let clauses =
    [| [ 1; 2 ]; [ -2; 3 ]; [ -3; 4 ]; [ -4; 5 ] |]
    |> Array.map (fun c -> Proof.Clause_db.alloc db (Sat.Clause.of_ints c))
  in
  let before = Proof.Clause_db.clauses_allocated db in
  let h =
    Proof.Kernel.chain_ids k ~context:"test"
      ~fetch:(fun i -> clauses.(i))
      ~learned_id:9 [| 0; 1; 2; 3 |]
  in
  Alcotest.check Alcotest.int "one allocation" 1
    (Proof.Clause_db.clauses_allocated db - before);
  Alcotest.check (Alcotest.list Alcotest.int) "resolvent" [ 1; 5 ]
    (sorted (Proof.Clause_db.lits db h))

let test_nested_chain () =
  (* a fetch that runs a chain on the same kernel mid-chain: (1 2)(-2 3)
     then the nested (-3 4)(-4 5) = (-3 5) must give (1 5), never a
     resolvent built from clobbered running state *)
  let k = kernel () in
  let db = Proof.Kernel.db k in
  let store c = Proof.Clause_db.alloc db (Sat.Clause.of_ints c) in
  let plain = [| store [ 1; 2 ]; store [ -2; 3 ]; store [ -3; 4 ]; store [ -4; 5 ] |] in
  let fetch = function
    | 2 ->
      Proof.Kernel.chain_ids k ~context:"nested"
        ~fetch:(fun i -> plain.(i))
        ~learned_id:50 [| 2; 3 |]
    | i -> plain.(i)
  in
  match
    Proof.Kernel.chain_ids k ~context:"outer" ~fetch ~learned_id:51 [| 0; 1; 2 |]
  with
  | h ->
    Alcotest.check (Alcotest.list Alcotest.int) "outer resolvent" [ 1; 5 ]
      (sorted (Proof.Clause_db.lits db h))
  | exception Invalid_argument _ -> ()

(* [Clause.resolve_normalized] against the reference [clashing_vars] /
   [resolve] on normalized operands.  Three seeds in four force the clash
   count ([seed mod 4] variables of [c1], as far as it has them, negated
   into [c2], whose other literals avoid [c1]'s variables) and assert the
   matching outcome, so all three outcomes are always exercised; the
   fourth draws [c2] freely. *)
let prop_resolve_normalized =
  Helpers.qtest ~count:500 "resolve_normalized = Clause.resolve"
    QCheck.(small_int)
    (fun seed ->
      let rng = Sat.Rng.create seed in
      let nvars = 7 in
      (* each allowed variable in with probability 1/2, either phase:
         sorted and normalized by construction *)
      let subset keep =
        Array.of_list
          (List.filter_map
             (fun v ->
               if keep v && Sat.Rng.bool rng then
                 Some (Sat.Lit.make v (Sat.Rng.bool rng))
               else None)
             (List.init nvars (fun i -> i + 1)))
      in
      let c1 = subset (fun _ -> true) in
      let forced = seed mod 4 in
      let c2, expected =
        if forced = 3 then (subset (fun _ -> true), None)
        else begin
          let k = min forced (Array.length c1) in
          let in_c1 v = Array.exists (fun l -> Sat.Lit.var l = v) c1 in
          let c =
            Array.append
              (Array.map Sat.Lit.negate (Array.sub c1 0 k))
              (subset (fun v -> not (in_c1 v)))
          in
          Array.sort Int.compare c;
          (c, Some k)
        end
      in
      let expects k = match expected with None -> true | Some e -> e = k in
      match
        Sat.Clause.clashing_vars c1 c2, Sat.Clause.resolve_normalized c1 c2
      with
      | [], No_clash -> expects 0
      | [ v ], One_clash r -> expects 1 && r = Sat.Clause.resolve c1 c2 v
      | _ :: _ :: _, Multi_clash -> expects 2
      | _, _ -> false)

let suite =
  [
    ( "resolution-kernel",
      [
        Alcotest.test_case "basic" `Quick test_basic;
        Alcotest.test_case "dedup" `Quick test_dedup;
        Alcotest.test_case "empty resolvent" `Quick test_empty_resolvent;
        Alcotest.test_case "no clash" `Quick test_no_clash;
        Alcotest.test_case "multiple clash" `Quick test_multiple_clash;
        Alcotest.test_case "kernel reuse" `Quick test_kernel_reuse;
        Alcotest.test_case "chain single" `Quick test_chain_single;
        Alcotest.test_case "chain sequence" `Quick test_chain_sequence;
        Alcotest.test_case "chain empty" `Quick test_chain_empty_sources;
        Alcotest.test_case "db sorts and dedups" `Quick test_db_sorts_and_dedups;
        Alcotest.test_case "db refcount and reuse" `Quick
          test_db_refcount_and_reuse;
        Alcotest.test_case "db meter accounting" `Quick test_db_meter_accounting;
        Alcotest.test_case "db arena growth" `Quick test_db_grows;
        prop_matches_reference;
        prop_chain_matches_fold;
        prop_resolve_normalized;
        Alcotest.test_case "chain allocates once" `Quick
          test_chain_allocates_once;
        Alcotest.test_case "nested chain" `Quick test_nested_chain;
      ] );
  ]
