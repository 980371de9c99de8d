(* Tests for CNF formulas and DIMACS parsing/printing. *)

let test_cnf_basics () =
  let f = Sat.Cnf.create 4 in
  let i0 = Sat.Cnf.add_clause f (Sat.Clause.of_ints [ 1; -2 ]) in
  let i1 = Sat.Cnf.add_clause f (Sat.Clause.of_ints [ 3 ]) in
  Alcotest.check Alcotest.int "first index" 0 i0;
  Alcotest.check Alcotest.int "second index" 1 i1;
  Alcotest.check Alcotest.int "nclauses" 2 (Sat.Cnf.nclauses f);
  Alcotest.check (Alcotest.list Alcotest.int) "clause content" [ 1; -2 ]
    (Sat.Clause.to_ints (Sat.Cnf.clause f 0))

let test_cnf_var_bounds () =
  let f = Sat.Cnf.create 2 in
  (try
     ignore (Sat.Cnf.add_clause f (Sat.Clause.of_ints [ 3 ]));
     Alcotest.fail "out-of-range variable accepted"
   with Invalid_argument _ -> ())

let test_distinct_vars () =
  (* header over-declares, like the paper's Table 3 footnote *)
  let f = Sat.Cnf.create 10 in
  ignore (Sat.Cnf.add_clause f (Sat.Clause.of_ints [ 1; -2 ]));
  ignore (Sat.Cnf.add_clause f (Sat.Clause.of_ints [ 2; 5 ]));
  Alcotest.check Alcotest.int "only occurring vars counted" 3
    (Sat.Cnf.num_distinct_vars f);
  Alcotest.check Alcotest.int "literal count" 4 (Sat.Cnf.num_literals f)

let test_restrict_to () =
  let f =
    Sat.Cnf.of_clauses 3
      [
        Sat.Clause.of_ints [ 1 ];
        Sat.Clause.of_ints [ 2 ];
        Sat.Clause.of_ints [ 3 ];
      ]
  in
  let g = Sat.Cnf.restrict_to f [ 2; 0; 2 ] in
  Alcotest.check Alcotest.int "dedup + sort" 2 (Sat.Cnf.nclauses g);
  Alcotest.check (Alcotest.list Alcotest.int) "kept clause order" [ 1 ]
    (Sat.Clause.to_ints (Sat.Cnf.clause g 0))

let test_dimacs_parse () =
  let f =
    Sat.Dimacs.parse_string
      "c a comment\np cnf 4 3\n1 -2 0\n2 3\n-4 0\n4 0\n"
  in
  Alcotest.check Alcotest.int "nvars" 4 (Sat.Cnf.nvars f);
  Alcotest.check Alcotest.int "nclauses" 3 (Sat.Cnf.nclauses f);
  (* the second clause spans two lines *)
  Alcotest.check (Alcotest.list Alcotest.int) "multi-line clause"
    [ 2; 3; -4 ]
    (Sat.Clause.to_ints (Sat.Cnf.clause f 1))

let expect_parse_error s name =
  try
    ignore (Sat.Dimacs.parse_string s);
    Alcotest.failf "%s: accepted" name
  with Sat.Dimacs.Parse_error _ -> ()

let test_dimacs_errors () =
  expect_parse_error "1 2 0\n" "missing header";
  expect_parse_error "p cnf 2 1\n1 2\n" "unterminated clause";
  expect_parse_error "p cnf 2 2\n1 0\n" "clause count mismatch";
  expect_parse_error "p cnf 1 1\n2 0\n" "variable out of range";
  expect_parse_error "p cnf x 1\n1 0\n" "bad header token";
  expect_parse_error "p cnf -1 0\n" "negative variable count";
  expect_parse_error "p cnf 1 -1\n" "negative clause count";
  expect_parse_error
    (Printf.sprintf "p cnf %d 1\n1 0\n" (Sat.Dimacs.max_vars + 1))
    "variable count past the bound"

let test_dimacs_roundtrip () =
  let rng = Sat.Rng.create 77 in
  for _ = 1 to 20 do
    let f = Helpers.random_messy_cnf rng ~nvars:12 ~nclauses:30 in
    let g = Sat.Dimacs.parse_string (Sat.Dimacs.to_string ~comment:"rt" f) in
    Alcotest.check Alcotest.int "nvars preserved" (Sat.Cnf.nvars f)
      (Sat.Cnf.nvars g);
    Alcotest.check Alcotest.int "nclauses preserved" (Sat.Cnf.nclauses f)
      (Sat.Cnf.nclauses g);
    for i = 0 to Sat.Cnf.nclauses f - 1 do
      if
        Sat.Clause.to_ints (Sat.Cnf.clause f i)
        <> Sat.Clause.to_ints (Sat.Cnf.clause g i)
      then Alcotest.failf "clause %d changed in roundtrip" i
    done
  done

let test_dimacs_file_io () =
  let f = Gen.Php.unsat ~holes:3 in
  let path = Filename.temp_file "dimacs_test" ".cnf" in
  Sat.Dimacs.write_file ~comment:"php3" path f;
  let g = Sat.Dimacs.parse_file path in
  Sys.remove path;
  Alcotest.check Alcotest.int "file roundtrip clause count"
    (Sat.Cnf.nclauses f) (Sat.Cnf.nclauses g)

let suite =
  [
    ( "cnf",
      [
        Alcotest.test_case "basics" `Quick test_cnf_basics;
        Alcotest.test_case "variable bounds" `Quick test_cnf_var_bounds;
        Alcotest.test_case "distinct vars" `Quick test_distinct_vars;
        Alcotest.test_case "restrict_to" `Quick test_restrict_to;
      ] );
    ( "dimacs",
      [
        Alcotest.test_case "parse" `Quick test_dimacs_parse;
        Alcotest.test_case "errors" `Quick test_dimacs_errors;
        Alcotest.test_case "roundtrip" `Quick test_dimacs_roundtrip;
        Alcotest.test_case "file io" `Quick test_dimacs_file_io;
      ] );
  ]
