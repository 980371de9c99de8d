(* Window-shifting on the forward replay: breadth-first's policy plus a
   spill of every live clause each [window] learned records.  Spilled
   learned clauses reload transiently for the one chain that needs them;
   originals simply drop, because the formula backs them. *)

type stats = {
  windows : int;      (* boundaries crossed *)
  spilled : int;      (* learned clauses written to the spill file *)
  reloaded : int;     (* transient reloads from the spill file *)
  max_resident : int; (* high-water defined-and-live learned clauses *)
}

let g_resident =
  Obs.Metrics.gauge Obs.Metrics.global "window.resident_clauses"

let g_spilled = Obs.Metrics.gauge Obs.Metrics.global "window.spilled_clauses"

let g_reloaded =
  Obs.Metrics.gauge Obs.Metrics.global "window.reloaded_clauses"

(* Spilled clauses are written as 32-bit big-endian ints through a
   buffered channel and read back with one positioned read each, straight
   from the descriptor: a channel seek outside its buffer would discard
   and refill a whole buffer per reload. *)
type spill = {
  path : string;
  oc : out_channel;
  fd : Unix.file_descr;
  mutable buf : Bytes.t;              (* reload bytes, grown on demand *)
  index : (int, int * int) Hashtbl.t; (* id -> (byte offset, lit count) *)
}

let spill_create () =
  let path = Filename.temp_file "window_spill" ".bin" in
  { path; oc = open_out_bin path;
    fd = Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0;
    buf = Bytes.create 256; index = Hashtbl.create 256 }

let spill_close s =
  close_out_noerr s.oc;
  (try Unix.close s.fd with Unix.Unix_error _ -> ());
  try Sys.remove s.path with Sys_error _ -> ()

(* [spill_read s off n dst] decodes the [n] ints stored at byte [off]
   into [dst.{0 .. n-1}]. *)
let spill_read s off n (dst : Proof.Clause_db.region) =
  let len = 4 * n in
  if Bytes.length s.buf < len then
    s.buf <- Bytes.create (max len (2 * Bytes.length s.buf));
  ignore (Unix.lseek s.fd off Unix.SEEK_SET);
  let got = ref 0 in
  while !got < len do
    let r = Unix.read s.fd s.buf !got (len - !got) in
    if r = 0 then raise End_of_file;
    got := !got + r
  done;
  for i = 0 to n - 1 do
    dst.{i} <- Int32.to_int (Bytes.get_int32_be s.buf (4 * i))
  done

type state = {
  kernel : Proof.Kernel.t;
  live : (int, unit) Hashtbl.t;      (* learned ids resident in the arena *)
  orig_live : (int, unit) Hashtbl.t; (* originals materialised this window *)
  spill : spill;
  mutable scratch : Proof.Clause_db.region;  (* reload buffer *)
  mutable transients : Proof.Clause_db.handle list;
  mutable fill : int;       (* learned records in the current window *)
  mutable windows : int;
  mutable spilled : int;
  mutable reloaded : int;
  mutable max_resident : int;
}

(* Shift the window: spill every live learned clause out through a frozen
   view, drop materialised originals (the formula backs them), and start
   the next window with an empty arena. *)
let boundary st =
  st.windows <- st.windows + 1;
  st.fill <- 0;
  if Hashtbl.length st.live > 0 then begin
    let db = Proof.Kernel.db st.kernel in
    let ro = Proof.Clause_db.freeze db in
    let region = Proof.Clause_db.ro_region ro in
    let ids = Hashtbl.fold (fun id () acc -> id :: acc) st.live [] in
    List.iter
      (fun id ->
        let h = Option.get (Proof.Kernel.peek st.kernel id) in
        let n = Proof.Clause_db.ro_size ro h in
        let base = Proof.Clause_db.lits_offset h in
        let off = pos_out st.spill.oc in
        for i = 0 to n - 1 do
          output_binary_int st.spill.oc region.{base + i}
        done;
        Hashtbl.replace st.spill.index id (off, n);
        st.spilled <- st.spilled + 1;
        Proof.Kernel.release_id st.kernel id)
      ids;
    if Obs.Journal.on () then
      Obs.Journal.record ~sub:"window" "spill"
        [
          ("window", st.windows);
          ("clauses", List.length ids);
          ("spilled_total", st.spilled);
        ];
    Hashtbl.reset st.live;
    flush st.spill.oc
  end;
  Hashtbl.iter
    (fun id () -> Proof.Kernel.release_id st.kernel id)
    st.orig_live;
  Hashtbl.reset st.orig_live

let reload st ~context id =
  match Hashtbl.find_opt st.spill.index id with
  | None -> Proof.Kernel.find st.kernel ~context id (* raises Unknown_clause *)
  | Some (off, n) ->
    st.scratch <- Proof.Clause_db.ensure_region st.scratch n;
    spill_read st.spill off n st.scratch;
    st.reloaded <- st.reloaded + 1;
    if Obs.Journal.on () then
      Obs.Journal.record ~sub:"window" "reload"
        [ ("id", id); ("lits", n); ("reloaded_total", st.reloaded) ];
    let h =
      Proof.Clause_db.alloc_sorted (Proof.Kernel.db st.kernel) st.scratch n
    in
    st.transients <- h :: st.transients;
    h

(* Clause lookup for pass two and the final chain: arena-resident first,
   then originals from the formula, then the spill file. *)
let fetch st ~context id =
  match Proof.Kernel.peek st.kernel id with
  | Some h -> h
  | None ->
    if Proof.Kernel.is_original st.kernel id then begin
      let h = Proof.Kernel.find st.kernel ~context id in
      Hashtbl.replace st.orig_live id ();
      h
    end
    else reload st ~context id

let drop_transients st =
  let db = Proof.Kernel.db st.kernel in
  List.iter (fun h -> Proof.Clause_db.release db h) st.transients;
  st.transients <- []

let check ?meter ?format ?io ?first_pass ?on_stats ~window formula source =
  if window < 1 then
    invalid_arg "Window.check: window size must be at least 1";
  let fw = Forward.create ?meter formula in
  let st =
    {
      kernel = Forward.kernel fw;
      live = Hashtbl.create 256;
      orig_live = Hashtbl.create 256;
      spill = spill_create ();
      scratch = Proof.Clause_db.make_region 64;
      transients = [];
      fill = 0;
      windows = 0;
      spilled = 0;
      reloaded = 0;
      max_resident = 0;
    }
  in
  let context = "breadth-first reconstruction" in
  let p =
    {
      (Forward.policy fw ~context) with
      fetch = fetch st ~context;
      final_fetch = fetch st ~context:"empty-clause construction";
      settle = (fun () -> drop_transients st);
      on_define =
        (fun id ->
          Hashtbl.replace st.live id ();
          let r = Hashtbl.length st.live in
          if r > st.max_resident then st.max_resident <- r);
      on_drain =
        (fun id ->
          Hashtbl.remove st.live id;
          Hashtbl.remove st.orig_live id;
          Hashtbl.remove st.spill.index id);
      next =
        (fun () ->
          st.fill <- st.fill + 1;
          if st.fill >= window then boundary st);
    }
  in
  let r =
    Forward.guard (fun () ->
        let pass_one_seconds =
          Forward.pass_one fw ~cat:"window"
            (Forward.source ?first_pass ?format ?io source)
        in
        Forward.replay fw p ~cat:"window" ?format ?io ~pass_one_seconds source)
  in
  spill_close st.spill;
  if Obs.Ctl.on () then begin
    Obs.Metrics.Gauge.set g_resident (float_of_int st.max_resident);
    Obs.Metrics.Gauge.set g_spilled (float_of_int st.spilled);
    Obs.Metrics.Gauge.set g_reloaded (float_of_int st.reloaded)
  end;
  Option.iter
    (fun f ->
      f
        {
          windows = st.windows;
          spilled = st.spilled;
          reloaded = st.reloaded;
          max_resident = st.max_resident;
        })
    on_stats;
  r
