type t = Lit.t array

let of_lits lits = Array.of_list lits
let of_ints ds = Array.of_list (List.map Lit.of_int ds)
let to_ints c = Array.to_list (Array.map Lit.to_int c)
let size = Array.length
let is_empty c = Array.length c = 0

let mem l c = Array.exists (fun x -> x = l) c

let sorted_dedup c =
  let c = Array.copy c in
  Array.sort Lit.compare c;
  let n = Array.length c in
  if n = 0 then c
  else begin
    let out = ref [ c.(0) ] in
    for i = 1 to n - 1 do
      match !out with
      | last :: _ when last = c.(i) -> ()
      | _ -> out := c.(i) :: !out
    done;
    Array.of_list (List.rev !out)
  end

let is_tautology c =
  let d = sorted_dedup c in
  (* after sorting by packed int, the two phases of a variable are
     adjacent *)
  let rec loop i =
    i + 1 < Array.length d
    && (Lit.var d.(i) = Lit.var d.(i + 1) || loop (i + 1))
  in
  loop 0

let normalize c =
  let d = sorted_dedup c in
  if is_tautology d then None else Some d

let clashing_vars c1 c2 =
  let clash = ref [] in
  Array.iter
    (fun l1 -> if mem (Lit.negate l1) c2 then clash := Lit.var l1 :: !clash)
    c1;
  List.sort_uniq Int.compare !clash

let resolve c1 c2 v =
  (match clashing_vars c1 c2 with
   | [ u ] when u = v -> ()
   | [ _ ] -> invalid_arg "Clause.resolve: pivot does not clash"
   | [] -> invalid_arg "Clause.resolve: no clashing variable"
   | _ :: _ :: _ -> invalid_arg "Clause.resolve: more than one clashing variable");
  let keep l = Lit.var l <> v in
  let lits =
    Array.to_list (Array.of_seq (Seq.filter keep (Array.to_seq c1)))
    @ Array.to_list (Array.of_seq (Seq.filter keep (Array.to_seq c2)))
  in
  sorted_dedup (Array.of_list lits)

type merge =
  | No_clash
  | One_clash of t
  | Multi_clash

(* One sorted-merge walk.  With literals packed [2v + sign], the two
   phases of a variable sort next to each other, so equal literals meet
   as [a = b] and a clash as equal variables with [a <> b].  On a single
   clash the unwalked tail of one operand is appended. *)
let resolve_normalized c1 c2 =
  let n1 = Array.length c1 and n2 = Array.length c2 in
  let out = Array.make (n1 + n2) Lit.undef in
  let i = ref 0 and j = ref 0 and k = ref 0 and clashes = ref 0 in
  while !clashes < 2 && !i < n1 && !j < n2 do
    let a = c1.(!i) and b = c2.(!j) in
    if a = b then begin
      out.(!k) <- a;
      incr k;
      incr i;
      incr j
    end
    else if Lit.var a = Lit.var b then begin
      incr clashes;
      incr i;
      incr j
    end
    else if a < b then begin
      out.(!k) <- a;
      incr k;
      incr i
    end
    else begin
      out.(!k) <- b;
      incr k;
      incr j
    end
  done;
  match !clashes with
  | 0 -> No_clash
  | 1 ->
    (* at most one of the two tails is non-empty *)
    Array.blit c1 !i out !k (n1 - !i);
    let k = !k + n1 - !i in
    Array.blit c2 !j out k (n2 - !j);
    One_clash (Array.sub out 0 (k + n2 - !j))
  | _ -> Multi_clash

let equal_modulo_order c1 c2 = sorted_dedup c1 = sorted_dedup c2

let to_string c =
  "(" ^ String.concat " + " (List.map Lit.to_string (Array.to_list c)) ^ ")"

let pp fmt c = Format.pp_print_string fmt (to_string c)
