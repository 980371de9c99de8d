type handle = int

exception Use_after_free of handle
exception Refcount_underflow of handle

(* Debug guards: when enabled, API entry points verify the handle still
   holds a reference, and releasing past zero raises instead of silently
   corrupting the freelist.  One flag read per clause-level operation;
   per-literal reads through a {!region} stay unguarded — they sit in the
   resolution kernel's innermost loop. *)
let debug = ref false
let set_debug b = debug := b
let debug_enabled () = !debug

type region = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Per-clause layout at offset [h]:
     arena.{h}     length (also the slot's capacity)
     arena.{h+1}   reference count
     arena.{h+2..} sorted duplicate-free packed literals
   The meter is charged [len + clause_overhead] words per clause — the
   accounting the individual checkers used before the shared store, kept
   so the simulated-memory experiments stay comparable. *)
let header_words = 2
let clause_overhead = 3

type t = {
  mutable arena : region;
  mutable top : int;                    (* bump pointer *)
  freelist : (int, int list) Hashtbl.t; (* capacity -> free offsets *)
  meter : Harness.Meter.t;
  mutable live : int;
  mutable peak_live : int;
  mutable allocated : int;
  mutable resident : int;               (* live arena words *)
  mutable peak_resident : int;
}

let make_region n = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n

let ensure_region r n =
  let cap = Bigarray.Array1.dim r in
  if cap >= n then r else make_region (max n (2 * cap))

(* Virtual address space is cheap on 64-bit hosts: one large reservation
   up front makes growth-by-relocation a cold path instead of a steady
   doubling, which is what lets {!freeze} hand out stable views between
   wavefront barriers.  The pages are untouched until the bump pointer
   reaches them, so the reservation costs address space, not RSS; under a
   tight [ulimit -v] the allocation itself can fail, in which case the
   reservation halves until it fits (the doubling grower then covers the
   rest, exactly as before). *)
let default_reserve_words = 1 lsl 23 (* 8 Mi words = 64 MiB *)

let min_reserve_words = 1024

let m_reserved =
  Obs.Metrics.gauge Obs.Metrics.global "arena.reserved_bytes"

let note_reserved words =
  if Obs.Ctl.on () then
    Obs.Metrics.Gauge.set m_reserved (float_of_int (8 * words))

let rec reserve_arena words =
  if words <= min_reserve_words then make_region min_reserve_words
  else
    match make_region words with
    | arena -> arena
    | exception Out_of_memory ->
      if Obs.Journal.on () then
        Obs.Journal.record ~sub:"arena" "reserve_fallback"
          [ ("wanted_words", words); ("retry_words", words / 2) ];
      reserve_arena (words / 2)

let create ?meter ?(reserve = default_reserve_words) () =
  let meter =
    match meter with Some m -> m | None -> Harness.Meter.create ()
  in
  let arena = reserve_arena (max min_reserve_words reserve) in
  note_reserved (Bigarray.Array1.dim arena);
  {
    arena;
    top = 0;
    freelist = Hashtbl.create 64;
    meter;
    live = 0;
    peak_live = 0;
    allocated = 0;
    resident = 0;
    peak_resident = 0;
  }

let meter db = db.meter

let reserved_words db = Bigarray.Array1.dim db.arena

let ensure_capacity db words =
  let cap = Bigarray.Array1.dim db.arena in
  if db.top + words > cap then begin
    let cap' = ref (cap * 2) in
    while db.top + words > !cap' do
      cap' := !cap' * 2
    done;
    let arena' = make_region !cap' in
    Bigarray.Array1.blit db.arena (Bigarray.Array1.sub arena' 0 cap);
    db.arena <- arena';
    if Obs.Journal.on () then
      Obs.Journal.record ~sub:"arena" "grow"
        [ ("from_words", cap); ("to_words", !cap') ];
    (* the gauge tracks the current reservation, not a running sum — a
       relocation replaces the old region rather than adding to it *)
    note_reserved !cap'
  end

let slot db n =
  match Hashtbl.find_opt db.freelist n with
  | Some (h :: rest) ->
    (if rest = [] then Hashtbl.remove db.freelist n
     else Hashtbl.replace db.freelist n rest);
    h
  | Some [] | None ->
    ensure_capacity db (header_words + n);
    let h = db.top in
    db.top <- db.top + header_words + n;
    h

let account_alloc db n =
  (* the meter may refuse (simulated memory-out) — charge it first so a
     refused clause leaves the store untouched *)
  Harness.Meter.alloc db.meter (n + clause_overhead);
  db.live <- db.live + 1;
  if db.live > db.peak_live then db.peak_live <- db.live;
  db.allocated <- db.allocated + 1;
  db.resident <- db.resident + header_words + n;
  if db.resident > db.peak_resident then db.peak_resident <- db.resident

(* Reserve and account a slot for an [n]-literal clause with one
   reference; the caller fills in the literals. *)
let place db n =
  account_alloc db n;
  let h = slot db n in
  db.arena.{h} <- n;
  db.arena.{h + 1} <- 1;
  h

let alloc_sorted db r n =
  let h = place db n in
  Bigarray.Array1.blit (Bigarray.Array1.sub r 0 n)
    (Bigarray.Array1.sub db.arena (h + header_words) n);
  h

let alloc db c =
  let n = Array.length c in
  let buf = Array.make n 0 in
  Array.blit c 0 buf 0 n;
  Array.sort Int.compare buf;
  (* drop exact duplicates in place; both phases of a variable are
     distinct packed ints and are kept *)
  let k = ref 0 in
  for i = 0 to n - 1 do
    if !k = 0 || buf.(!k - 1) <> buf.(i) then begin
      buf.(!k) <- buf.(i);
      incr k
    end
  done;
  let h = place db !k in
  for i = 0 to !k - 1 do
    db.arena.{h + header_words + i} <- buf.(i)
  done;
  h

let check_live db h =
  if !debug && db.arena.{h + 1} <= 0 then raise (Use_after_free h)

let size db h =
  check_live db h;
  db.arena.{h}

let lits_offset h = h + header_words

let lits db h =
  let n = size db h in
  Array.init n (fun i -> db.arena.{h + header_words + i})

let iter_lits db h f =
  let n = size db h in
  for i = 0 to n - 1 do
    f db.arena.{h + header_words + i}
  done

let refcount db h = db.arena.{h + 1}

let retain db h =
  check_live db h;
  db.arena.{h + 1} <- db.arena.{h + 1} + 1

let release db h =
  if !debug && db.arena.{h + 1} <= 0 then raise (Refcount_underflow h);
  let rc = db.arena.{h + 1} - 1 in
  db.arena.{h + 1} <- rc;
  if rc <= 0 then begin
    let n = db.arena.{h} in
    Harness.Meter.free db.meter (n + clause_overhead);
    db.live <- db.live - 1;
    db.resident <- db.resident - (header_words + n);
    let free = Option.value ~default:[] (Hashtbl.find_opt db.freelist n) in
    Hashtbl.replace db.freelist n (h :: free)
  end

let live_clauses db = db.live
let peak_live_clauses db = db.peak_live
let clauses_allocated db = db.allocated
let live_words db = db.resident
let peak_words db = db.peak_resident

(* A frozen view pins the arena region and the bump pointer at freeze
   time.  Reads go straight to the shared region — no copies, no locks,
   no GC traffic — which is safe under the wavefront discipline: workers
   only read handles published before the freeze, and the coordinator
   only allocates/releases between freezes.  A (rare) relocation of a
   reservation-overflowing arena invalidates outstanding views, so the
   coordinator re-freezes at every dispatch. *)
type ro = {
  ro_arena : region;
  ro_top : int;
}

let freeze db = { ro_arena = db.arena; ro_top = db.top }

let ro_region ro = ro.ro_arena

let ro_size ro h =
  if !debug && (h < 0 || h + header_words > ro.ro_top) then
    raise (Use_after_free h);
  ro.ro_arena.{h}
