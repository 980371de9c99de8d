(* The forward replay (paper §3.3).  Pass one validates the trace in
   stream order and, optionally, counts every clause's uses; records are
   then rebuilt in stream order, each committed by defining it if it is
   still used and releasing the sources whose use counts drain.  Every
   checker except depth-first is a policy over this loop. *)

(* --- the use-count store ------------------------------------------------ *)

(* The use counts are the paper's "temporary file".  [Counted] keeps one
   hash table; [Spilled] reads totals from a real file written by chunked
   counting passes and caches counters in memory only for clauses
   currently alive; [Never] means nothing is freed by count. *)
type uses =
  | Never
  | Counted of (int, int) Hashtbl.t
  | Spilled of { path : string; ic : in_channel; live : (int, int) Hashtbl.t }

type t = {
  kernel : Proof.Kernel.t;
  l0 : Proof.Level0.t;
  stream : Proof.Kernel.stream;
  mutable uses : uses;
  mutable failed : Diagnostics.failure option;
}

type policy = {
  context : string;
  fetch : int -> Proof.Clause_db.handle;
  final_fetch : int -> Proof.Clause_db.handle;
  rebuild : int -> bool;
  settle : unit -> unit;
  on_define : int -> unit;
  on_drain : int -> unit;
  next : unit -> unit;
}

let create ?meter ?charge ?(hints = false) ?(count = true) formula =
  let kernel = Proof.Kernel.create ?meter formula in
  let l0 = Proof.Level0.create () in
  {
    kernel;
    l0;
    stream =
      Proof.Kernel.stream_start kernel ~stream_order:true ~l0 ?charge
        ~accept_hints:hints ();
    uses = (if count then Counted (Hashtbl.create 4096) else Never);
    failed = None;
  }

let kernel fw = fw.kernel

let read_count_from_file ic id =
  seek_in ic (4 * id);
  let b0 = input_byte ic in
  let b1 = input_byte ic in
  let b2 = input_byte ic in
  let b3 = input_byte ic in
  b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24)

let count fw id =
  match fw.uses with
  | Never -> 0
  | Counted tbl -> Option.value ~default:0 (Hashtbl.find_opt tbl id)
  | Spilled { ic; live; _ } -> (
    match Hashtbl.find_opt live id with
    | Some n -> n
    | None -> ( try read_count_from_file ic id with End_of_file -> 0))

let set_count fw id n =
  match fw.uses with
  | Never -> ()
  | Counted tbl | Spilled { live = tbl; _ } ->
    if n <= 0 then Hashtbl.remove tbl id else Hashtbl.replace tbl id n

let bump tbl id =
  Hashtbl.replace tbl id (1 + Option.value ~default:0 (Hashtbl.find_opt tbl id))

let used fw id = count fw id > 0
let use_counts fw tbl = fw.uses <- Counted tbl

(* The uses one event makes: each resolve source, a level-0 antecedent,
   the final conflict.  Delete hints are not uses. *)
let iter_uses e f =
  match e with
  | Trace.Event.Header _ | Trace.Event.Delete _ -> ()
  | Trace.Event.Learned l -> Array.iter f l.sources
  | Trace.Event.Level0 v -> f v.ante
  | Trace.Event.Final_conflict id -> f id

(* Spilled counting: stream the trace once per chunk of the ID space,
   accumulate that chunk's use counts in a bounded slab, and append the
   slab to the file — the paper's multi-pass variant of pass one. *)
let iter_use_ids cur f =
  Trace.Reader.rewind cur;
  Trace.Reader.iter_cursor cur (fun e -> iter_uses e f)

let write_counts_file cur ~chunk =
  let chunk = max 1 chunk in
  let max_id = ref 0 in
  iter_use_ids cur (fun id -> if id > !max_id then max_id := id);
  let path = Filename.temp_file "bf_counts" ".bin" in
  let oc = open_out_bin path in
  let slab = Array.make chunk 0 in
  let lo = ref 0 in
  while !lo <= !max_id do
    Array.fill slab 0 chunk 0;
    let hi = !lo + chunk in
    iter_use_ids cur (fun id ->
        if id >= !lo && id < hi then slab.(id - !lo) <- slab.(id - !lo) + 1);
    for i = 0 to chunk - 1 do
      let n = slab.(i) in
      output_byte oc (n land 0xff);
      output_byte oc ((n lsr 8) land 0xff);
      output_byte oc ((n lsr 16) land 0xff);
      output_byte oc ((n lsr 24) land 0xff)
    done;
    lo := hi
  done;
  close_out oc;
  path

let count_to_file fw ?format ?io ~chunk source =
  let cur = Trace.Reader.cursor ?format ?io source in
  let path = write_counts_file cur ~chunk in
  Trace.Reader.close cur;
  fw.uses <- Spilled { path; ic = open_in_bin path; live = Hashtbl.create 256 }

let close fw =
  match fw.uses with
  | Spilled { path; ic; _ } -> (
    close_in_noerr ic;
    try Sys.remove path with Sys_error _ -> ())
  | Never | Counted _ -> ()

(* Reverse sweep: because stream order forbids forward references, one
   backward pass over the definitions gives the exact set reachable from
   the final conflict, with each needed clause's uses among needed
   clauses. *)
let reachable ~defs ~antes conf_id =
  let uses = Hashtbl.create 1024 in
  bump uses conf_id;
  (* every recorded antecedent may be used by the empty-clause chain *)
  Sat.Vec.iter (bump uses) antes;
  for i = Sat.Vec.length defs - 1 downto 0 do
    let id, sources = Sat.Vec.get defs i in
    if Hashtbl.mem uses id then Array.iter (bump uses) sources
  done;
  uses

(* --- pass one ----------------------------------------------------------- *)

(* One event into the validating pass.  A violation is recorded, not
   raised — a live solver cannot be interrupted mid-push — and every
   later event is ignored, so the failure reported is exactly the first
   one a pull-driven pass stops at. *)
let feed fw ?(on_event = ignore) e =
  if fw.failed = None then
    try
      Proof.Kernel.stream_feed fw.stream e;
      (match fw.uses with
       | Counted tbl -> iter_uses e (bump tbl)
       | Never | Spilled _ -> ());
      on_event e
    with Diagnostics.Check_failed f -> fw.failed <- Some f

let failed fw = fw.failed
let sink fw = Trace.Sink.make (fun e -> feed fw e)

let drain fw ?on_event src =
  Fun.protect
    ~finally:(fun () -> Trace.Source.close src)
    (fun () ->
      let rec loop () =
        if fw.failed = None then
          match Trace.Source.next src with
          | Some e ->
            feed fw ?on_event e;
            loop ()
          | None -> ()
      in
      loop ())

let timed ~cat name f =
  Harness.Timer.wall_time (fun () -> Obs.Span.scope ~cat name f)

let pass_one fw ~cat ?(name = "check.pass_one") ?on_event src =
  snd (timed ~cat name (fun () -> drain fw ?on_event src))

let conflict = function
  | Some id -> id
  | None -> Diagnostics.fail Diagnostics.Missing_final_conflict

let conclude fw =
  Option.iter Diagnostics.fail fw.failed;
  let pass = Proof.Kernel.stream_finish fw.stream in
  (pass.Proof.Kernel.total_learned, conflict pass.Proof.Kernel.final_conflict)

(* --- the per-record commit ---------------------------------------------- *)

let policy fw ~context =
  let find context id = Proof.Kernel.find fw.kernel ~context id in
  {
    context;
    fetch = find context;
    final_fetch = find "empty-clause construction";
    rebuild = (fun _ -> true);
    settle = ignore;
    on_define = ignore;
    on_drain = ignore;
    next = ignore;
  }

let release_use fw p id =
  match count fw id with
  | 0 -> ()
  | n when n <= 1 ->
    set_count fw id 0;
    Proof.Kernel.release_id fw.kernel id;
    p.on_drain id
  | n -> set_count fw id (n - 1)

let commit fw p ~id ~sources h =
  let k = fw.kernel in
  match fw.uses with
  | Never -> Proof.Kernel.define k id h
  | Counted _ | Spilled _ ->
    let n = count fw id in
    if n > 0 then begin
      Proof.Kernel.define k id h;
      (* spilled counts: cache the counter while the clause is alive *)
      set_count fw id n;
      p.on_define id
    end
    else Proof.Clause_db.release (Proof.Kernel.db k) h;
    Array.iter (release_use fw p) sources

let record fw p ~id ~sources =
  if p.rebuild id then begin
    let h =
      Proof.Kernel.chain_ids fw.kernel ~context:p.context ~fetch:p.fetch
        ~learned_id:id sources
    in
    p.settle ();
    commit fw p ~id ~sources h;
    p.next ()
  end

let final fw p conf_id =
  let n =
    Proof.Kernel.final_chain_ids fw.kernel ~l0:fw.l0 ~fetch:p.final_fetch
      ~conflict_id:conf_id
  in
  p.settle ();
  n

(* --- the frame ---------------------------------------------------------- *)

let source ?first_pass ?format ?io source =
  match first_pass with
  | Some s -> s
  | None ->
    Trace.Source.of_cursor ~close_cursor:true
      (Trace.Reader.cursor ?format ?io source)

let guard run =
  try Ok (run ()) with
  | Diagnostics.Check_failed f -> Error f
  | Trace.Reader.Parse_error { pos; msg } ->
    Error (Diagnostics.of_parse_error ~pos msg)

let report ?(core = false) ?(jobs = 1) ?(wavefronts = 0)
    ?(max_wavefront_width = 0) k ~total_learned ~pass_one_seconds
    ~pass_two_seconds =
  let c = Proof.Kernel.counters k in
  {
    Report.clauses_built = c.Proof.Kernel.clauses_built;
    total_learned;
    resolution_steps = c.Proof.Kernel.resolution_steps;
    core_original_ids = (if core then Proof.Kernel.core_ids k else []);
    learned_built_ids = Proof.Kernel.built_ids k;
    core_vars = (if core then Proof.Kernel.core_var_count k else 0);
    peak_mem_words = Harness.Meter.peak_words (Proof.Kernel.meter k);
    peak_live_clauses = c.Proof.Kernel.peak_live_clauses;
    arena_bytes_resident = c.Proof.Kernel.arena_peak_bytes;
    jobs;
    wavefronts;
    max_wavefront_width;
    pass_one_seconds;
    pass_two_seconds;
  }

let replay fw p ~cat ?format ?io ?(prepare = ignore) ?core ~pass_one_seconds
    source =
  let total_learned, conf_id = conclude fw in
  prepare conf_id;
  let (), pass_two_seconds =
    timed ~cat "check.pass_two" (fun () ->
        let cur = Trace.Reader.cursor ?format ?io source in
        Trace.Reader.rewind cur;
        Trace.Reader.iter_cursor cur (fun e ->
            match e with
            | Trace.Event.Learned { id; sources } -> record fw p ~id ~sources
            | Trace.Event.Header _ | Trace.Event.Level0 _
            | Trace.Event.Final_conflict _ | Trace.Event.Delete _ -> ());
        Trace.Reader.close cur;
        ignore (final fw p conf_id : int))
  in
  report ?core fw.kernel ~total_learned ~pass_one_seconds ~pass_two_seconds
