(* A fixed amount of CPU work that shares no code with the repository.
   perfbench/run.py runs it after every rescheck child it times and
   divides the children's times by its own: a slow period of the shared
   host slows both alike, so it cancels, while a change to the program
   moves only the program.  The three parts mirror the program's own mix:
   integer arithmetic, random access to a 2 MB array, and merging sorted
   arrays into freshly allocated ones.  It prints a checksum so that no
   part can be optimised away. *)

let next x = ((x * 1103515245) + 12345) land 0x3fffffff

let arithmetic n =
  let x = ref 12345 and acc = ref 0 in
  for i = 1 to n do
    x := next (!x + i);
    acc := !acc lxor (!x lsr 7)
  done;
  !acc

let random_access n =
  let size = 1 lsl 18 in
  let a = Array.make size 0 and x = ref 1 and acc = ref 0 in
  for _ = 1 to n do
    x := next !x;
    let j = (!x lsr 3) land (size - 1) in
    a.(j) <- a.(j) + 1;
    acc := !acc + a.((j * 7) land (size - 1))
  done;
  !acc

let merges n =
  let pool =
    Array.init 2000 (fun i ->
        let a = Array.init (8 + (i mod 24)) (fun j -> ((i * 7919) + (j * 104729)) land 0xfffff) in
        Array.sort compare a;
        a)
  in
  let x = ref 1 and acc = ref 0 in
  for _ = 1 to n do
    x := next !x;
    let a = pool.((!x lsr 4) mod 2000) and b = pool.((!x lsr 14) mod 2000) in
    let la = Array.length a and lb = Array.length b in
    let out = Array.make (la + lb) 0 in
    let i = ref 0 and j = ref 0 in
    for k = 0 to la + lb - 1 do
      if !j >= lb || (!i < la && a.(!i) <= b.(!j)) then (
        out.(k) <- a.(!i);
        incr i)
      else (
        out.(k) <- b.(!j);
        incr j)
    done;
    acc := !acc + out.((la + lb) / 2)
  done;
  !acc

let () =
  Printf.printf "%d\n"
    (arithmetic 10_000_000 lxor random_access 1_000_000 lxor merges 7_000)
