exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* Solvers and simplifiers size per-variable arrays from the declared
   count before reading a clause, so an absurd header must be refused
   here rather than fail deep inside an allocation.  The bound is
   kissat's largest external variable index. *)
let max_vars = (1 lsl 28) - 1

(* Tokenize into ints, skipping 'c' comment lines and the '%' / '0' tail
   some old benchmark files carry. *)
let tokens_of_string s =
  let toks = ref [] in
  let lines = String.split_on_char '\n' s in
  let header = ref None in
  List.iter
    (fun line ->
      let line = String.trim line in
      if line = "" || line.[0] = 'c' || line.[0] = '%' then ()
      else if line.[0] = 'p' then begin
        match String.split_on_char ' ' line |> List.filter (( <> ) "") with
        | [ "p"; "cnf"; nv; nc ] -> (
          match int_of_string_opt nv, int_of_string_opt nc with
          | Some nv, Some nc when nv >= 0 && nc >= 0 ->
            if nv > max_vars then
              fail "bad header %S: more than %d variables" line max_vars;
            header := Some (nv, nc)
          | _ -> fail "bad header %S" line)
        | _ -> fail "bad header %S" line
      end
      else
        String.split_on_char ' ' line
        |> List.iter (fun w ->
               String.split_on_char '\t' w
               |> List.iter (fun w ->
                      if w <> "" then
                        match int_of_string_opt w with
                        | Some d -> toks := d :: !toks
                        | None -> fail "unexpected token %S" w)))
    lines;
  (!header, List.rev !toks)

let parse_string s =
  match tokens_of_string s with
  | None, _ -> fail "missing 'p cnf' header"
  | Some (nvars, nclauses), toks ->
    let f = Cnf.create nvars in
    let cur = ref [] in
    List.iter
      (fun d ->
        if d = 0 then begin
          ignore (Cnf.add_clause f (Clause.of_lits (List.rev !cur)));
          cur := []
        end
        else begin
          let v = abs d in
          if v > nvars then fail "variable %d exceeds declared %d" v nvars;
          cur := Lit.of_int d :: !cur
        end)
      toks;
    if !cur <> [] then fail "trailing literals without terminating 0";
    if Cnf.nclauses f <> nclauses then
      fail "header declares %d clauses, found %d" nclauses (Cnf.nclauses f);
    f

let parse_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  try parse_string s
  with Parse_error m -> fail "%s: %s" path m

let to_string ?comment f =
  let buf = Buffer.create (16 * Cnf.nclauses f) in
  (match comment with
   | None -> ()
   | Some c ->
     String.split_on_char '\n' c
     |> List.iter (fun line -> Buffer.add_string buf ("c " ^ line ^ "\n")));
  Buffer.add_string buf
    (Printf.sprintf "p cnf %d %d\n" (Cnf.nvars f) (Cnf.nclauses f));
  Cnf.iter_clauses
    (fun _ c ->
      Array.iter
        (fun l ->
          Buffer.add_string buf (Lit.to_string l);
          Buffer.add_char buf ' ')
        c;
      Buffer.add_string buf "0\n")
    f;
  Buffer.contents buf

let write_file ?comment path f =
  let oc = open_out_bin path in
  output_string oc (to_string ?comment f);
  close_out oc
