(* Clause_db lifetime guards and the freelist path: releasing the last
   reference must recycle the slot, and in debug mode any touch of a dead
   handle must raise instead of silently reading recycled memory. *)

module Db = Proof.Clause_db

let with_debug f =
  let was = Db.debug_enabled () in
  Db.set_debug true;
  Fun.protect ~finally:(fun () -> Db.set_debug was) f

let c ints = Sat.Clause.of_ints ints

let test_freelist_reuse () =
  let db = Db.create () in
  let h1 = Db.alloc db (c [ 1; -2; 3 ]) in
  Alcotest.check Alcotest.int "live" 1 (Db.live_clauses db);
  Db.release db h1;
  Alcotest.check Alcotest.int "live after release" 0 (Db.live_clauses db);
  (* same size bin: the freed slot must be recycled, not fresh arena *)
  let h2 = Db.alloc db (c [ 4; 5; -6 ]) in
  Alcotest.check Alcotest.int "slot reused" h1 h2;
  Alcotest.check Alcotest.int "size" 3 (Db.size db h2);
  let got = Array.to_list (Array.map Sat.Lit.to_int (Db.lits db h2)) in
  Alcotest.(check (list int)) "reused slot holds new clause"
    (List.sort compare [ 4; 5; -6 ])
    (List.sort compare got)

let test_use_after_free () =
  with_debug (fun () ->
      let db = Db.create () in
      let h = Db.alloc db (c [ 1; 2 ]) in
      Db.release db h;
      Alcotest.check_raises "size on dead handle" (Db.Use_after_free h)
        (fun () -> ignore (Db.size db h));
      Alcotest.check_raises "retain on dead handle" (Db.Use_after_free h)
        (fun () -> Db.retain db h))

let test_refcount_underflow () =
  with_debug (fun () ->
      let db = Db.create () in
      let h = Db.alloc db (c [ 1; 2; 3 ]) in
      Db.release db h;
      Alcotest.check_raises "double release" (Db.Refcount_underflow h)
        (fun () -> Db.release db h))

let test_retain_release_balance () =
  with_debug (fun () ->
      let db = Db.create () in
      let h = Db.alloc db (c [ 1; -2 ]) in
      Db.retain db h;
      Db.release db h;
      (* one reference left: still live and readable *)
      Alcotest.check Alcotest.int "still live" 2 (Db.size db h);
      Db.release db h;
      Alcotest.check_raises "now dead" (Db.Use_after_free h) (fun () ->
          ignore (Db.size db h)))

(* --- reserved region and frozen read-only views ------------------------ *)

let ints_of_ro ro h =
  let r = Db.ro_region ro and base = Db.lits_offset h in
  List.init (Db.ro_size ro h) (fun i -> Sat.Lit.to_int r.{base + i})

let test_reserve_and_freeze () =
  let db = Db.create ~reserve:4096 () in
  Alcotest.check Alcotest.bool "reservation honours the request" true
    (Db.reserved_words db >= 4096);
  let h = Db.alloc db (c [ 1; -2; 3 ]) in
  let ro = Db.freeze db in
  Alcotest.check Alcotest.int "ro_size" 3 (Db.ro_size ro h);
  Alcotest.(check (list int))
    "the frozen region holds the packed literals in place"
    (Array.to_list (Array.map Sat.Lit.to_int (Db.lits db h)))
    (ints_of_ro ro h);
  (* alloc_sorted copies a region run back into the store *)
  let r = Db.make_region 8 in
  List.iteri (fun i l -> r.{i} <- l) (Array.to_list (Db.lits db h));
  let h' = Db.alloc_sorted db r 3 in
  Alcotest.check Alcotest.int "alloc_sorted keeps the length" 3 (Db.size db h');
  Alcotest.(check (list int))
    "alloc_sorted copies the same run" (ints_of_ro ro h)
    (ints_of_ro (Db.freeze db) h')

(* A frozen view is a stable snapshot: growing (and relocating) the
   arena after the freeze must not disturb reads through the old view,
   and a fresh freeze must see the same clause in the new arena. *)
let test_freeze_survives_growth () =
  let db = Db.create ~reserve:1024 () in
  let h = Db.alloc db (c [ 7; -8 ]) in
  let ro = Db.freeze db in
  let before = ints_of_ro ro h in
  let keep = ref [] in
  for i = 1 to 500 do
    keep := Db.alloc db (c [ (3 * i) + 10; -((3 * i) + 11); (3 * i) + 12 ]) :: !keep
  done;
  Alcotest.check Alcotest.bool "arena grew past the tiny reservation" true
    (Db.reserved_words db > 1024);
  Alcotest.(check (list int)) "frozen view is a stable snapshot" before
    (ints_of_ro ro h);
  let ro' = Db.freeze db in
  Alcotest.(check (list int)) "re-freeze reads the relocated arena" before
    (ints_of_ro ro' h)

let test_ro_stale_handle_guard () =
  with_debug (fun () ->
      let db = Db.create () in
      let h0 = Db.alloc db (c [ 1; 2 ]) in
      let ro = Db.freeze db in
      let h1 = Db.alloc db (c [ 3; 4 ]) in
      ignore (Db.ro_size ro h0);
      (* a handle allocated after the freeze lies past the frozen top *)
      Alcotest.check_raises "handle past the frozen top"
        (Db.Use_after_free h1) (fun () -> ignore (Db.ro_size ro h1)))

let suite =
  [
    ( "clause_db debug guards",
      [
        Alcotest.test_case "freelist reuses released slot" `Quick
          test_freelist_reuse;
        Alcotest.test_case "use-after-free raises in debug mode" `Quick
          test_use_after_free;
        Alcotest.test_case "refcount underflow raises in debug mode" `Quick
          test_refcount_underflow;
        Alcotest.test_case "retain/release balance" `Quick
          test_retain_release_balance;
        Alcotest.test_case "reserve and freeze" `Quick test_reserve_and_freeze;
        Alcotest.test_case "freeze survives growth" `Quick
          test_freeze_survives_growth;
        Alcotest.test_case "ro guard on stale handles" `Quick
          test_ro_stale_handle_guard;
      ] );
  ]
