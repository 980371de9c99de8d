type t = {
  db : Clause_db.t;
  meter : Harness.Meter.t;
  formula : Sat.Cnf.t;
  num_original : int;
  handles : (int, Clause_db.handle) Hashtbl.t;  (* one ref owned per entry *)
  core : (int, unit) Hashtbl.t;                 (* original ids materialised *)
  mutable built_ids : int list;                 (* learned ids chained *)
  mutable built_sorted : int list option;       (* memoised sorted built_ids *)
  mutable core_sorted : int list option;        (* memoised sorted core ids *)
  mutable built : int;
  mutable steps : int;
  mutable merges : int;
  mutable scratch : int array;                  (* merge output buffer *)
}

(* Telemetry handles, resolved once.  The kernel updates them at chain
   granularity (one learned clause), never per resolution step. *)
let m_chains = Obs.Metrics.counter Obs.Metrics.global "kernel.chains"
let m_steps = Obs.Metrics.counter Obs.Metrics.global "kernel.resolution_steps"
let m_live = Obs.Metrics.gauge Obs.Metrics.global "kernel.live_clauses"
let m_arena = Obs.Metrics.gauge Obs.Metrics.global "kernel.arena_bytes"
let m_chain_len =
  Obs.Metrics.histogram Obs.Metrics.global "kernel.chain_length"
let m_stream_events =
  Obs.Metrics.counter Obs.Metrics.global "kernel.stream_events"

let create ?meter formula =
  let db = Clause_db.create ?meter () in
  {
    db;
    meter = Clause_db.meter db;
    formula;
    num_original = Sat.Cnf.nclauses formula;
    handles = Hashtbl.create 1024;
    core = Hashtbl.create 256;
    built_ids = [];
    built_sorted = None;
    core_sorted = None;
    built = 0;
    steps = 0;
    merges = 0;
    scratch = Array.make 64 0;
  }

let db t = t.db
let meter t = t.meter
let num_original t = t.num_original
let is_original t id = id >= 1 && id <= t.num_original

(* --- id table ---------------------------------------------------------- *)

let define t id h = Hashtbl.replace t.handles id h
let defined t id = Hashtbl.mem t.handles id

let find t ~context id =
  match Hashtbl.find_opt t.handles id with
  | Some h -> h
  | None ->
    if is_original t id then begin
      Hashtbl.replace t.core id ();
      t.core_sorted <- None;
      let h = Clause_db.alloc t.db (Sat.Cnf.clause t.formula (id - 1)) in
      Hashtbl.replace t.handles id h;
      h
    end
    else Diagnostics.fail (Diagnostics.Unknown_clause { context; id })

let release_id t id =
  match Hashtbl.find_opt t.handles id with
  | None -> ()
  | Some h ->
    Hashtbl.remove t.handles id;
    Clause_db.release t.db h

(* --- resolution -------------------------------------------------------- *)

let phase_bit l = if Sat.Lit.is_neg l then 2 else 1
let swap_mask m = ((m land 1) lsl 1) lor ((m lsr 1) land 1)

(* Both operands are sorted duplicate-free packed-literal runs, so both
   phases of a variable sit adjacently and one linear merge walk finds the
   clashing variables: a variable whose phase masks overlap crosswise. *)
let clashing_vars t h1 h2 =
  let db = t.db in
  let n1 = Clause_db.size db h1 and n2 = Clause_db.size db h2 in
  let clashes = ref [] in
  let i = ref 0 and j = ref 0 in
  let var_mask h n r =
    let v = Sat.Lit.var (Clause_db.lit db h !r) in
    let m = ref 0 in
    while !r < n && Sat.Lit.var (Clause_db.lit db h !r) = v do
      m := !m lor phase_bit (Clause_db.lit db h !r);
      incr r
    done;
    (v, !m)
  in
  while !i < n1 && !j < n2 do
    let v1 = Sat.Lit.var (Clause_db.lit db h1 !i)
    and v2 = Sat.Lit.var (Clause_db.lit db h2 !j) in
    if v1 < v2 then ignore (var_mask h1 n1 i)
    else if v2 < v1 then ignore (var_mask h2 n2 j)
    else begin
      let _, m1 = var_mask h1 n1 i in
      let _, m2 = var_mask h2 n2 j in
      if m1 land swap_mask m2 <> 0 then clashes := v1 :: !clashes
    end
  done;
  List.rev !clashes

let ensure_scratch t n =
  if Array.length t.scratch < n then
    t.scratch <- Array.make (max n (2 * Array.length t.scratch)) 0

let resolve t ~context ~c1_id ~c2_id h1 h2 =
  let db = t.db in
  let pivot =
    match clashing_vars t h1 h2 with
    | [ v ] -> v
    | [] ->
      Diagnostics.fail
        (Diagnostics.No_clash
           { context; c1_id; c2_id;
             c1 = Clause_db.lits db h1; c2 = Clause_db.lits db h2 })
    | vars ->
      Diagnostics.fail
        (Diagnostics.Multiple_clash { context; c1_id; c2_id; vars })
  in
  let n1 = Clause_db.size db h1 and n2 = Clause_db.size db h2 in
  ensure_scratch t (n1 + n2);
  let out = t.scratch in
  let k = ref 0 and i = ref 0 and j = ref 0 in
  let emit l =
    if Sat.Lit.var l <> pivot then begin
      out.(!k) <- l;
      incr k
    end
  in
  while !i < n1 && !j < n2 do
    let l1 = Clause_db.lit db h1 !i and l2 = Clause_db.lit db h2 !j in
    if l1 = l2 then begin
      emit l1;
      if Sat.Lit.var l1 <> pivot then t.merges <- t.merges + 1;
      incr i;
      incr j
    end
    else if l1 < l2 then begin
      emit l1;
      incr i
    end
    else begin
      emit l2;
      incr j
    end
  done;
  while !i < n1 do
    emit (Clause_db.lit db h1 !i);
    incr i
  done;
  while !j < n2 do
    emit (Clause_db.lit db h2 !j);
    incr j
  done;
  t.steps <- t.steps + 1;
  (Clause_db.alloc_sorted db out !k, pivot)

let resolve_lits t ~context ~c1_id ~c2_id c1 c2 =
  let h1 = Clause_db.alloc t.db c1 in
  let h2 = Clause_db.alloc t.db c2 in
  let r, pivot = resolve t ~context ~c1_id ~c2_id h1 h2 in
  let out = Clause_db.lits t.db r in
  Clause_db.release t.db r;
  Clause_db.release t.db h1;
  Clause_db.release t.db h2;
  (out, pivot)

(* --- re-entrant frozen-view resolution ---------------------------------- *)

(* The same checked resolution as {!resolve}, with the first operand in a
   caller-owned literal array and the second read in place from a
   {!Clause_db.ro} view: no kernel counters, no shared-arena allocation,
   no mutable kernel state at all.  The parallel checker's worker domains
   run whole chains through this while the shared store is read-only, and
   commit the results (and the counter deltas) at the wavefront barrier.
   The running resolvent lives in domain-local scratch; every store
   operand stays in the shared arena. *)

let clashing_vars_ro a na ro h2 nb =
  let clashes = ref [] in
  let i = ref 0 and j = ref 0 in
  let var_mask_a () =
    let v = Sat.Lit.var a.(!i) in
    let m = ref 0 in
    while !i < na && Sat.Lit.var a.(!i) = v do
      m := !m lor phase_bit a.(!i);
      incr i
    done;
    (v, !m)
  in
  let var_mask_b () =
    let v = Sat.Lit.var (Clause_db.ro_lit ro h2 !j) in
    let m = ref 0 in
    while
      !j < nb && Sat.Lit.var (Clause_db.ro_lit ro h2 !j) = v
    do
      m := !m lor phase_bit (Clause_db.ro_lit ro h2 !j);
      incr j
    done;
    (v, !m)
  in
  while !i < na && !j < nb do
    let v1 = Sat.Lit.var a.(!i)
    and v2 = Sat.Lit.var (Clause_db.ro_lit ro h2 !j) in
    if v1 < v2 then ignore (var_mask_a ())
    else if v2 < v1 then ignore (var_mask_b ())
    else begin
      let _, m1 = var_mask_a () in
      let _, m2 = var_mask_b () in
      if m1 land swap_mask m2 <> 0 then clashes := v1 :: !clashes
    end
  done;
  List.rev !clashes

let resolve_ro ~context ~c1_id ~c2_id a na ro h2 out =
  let nb = Clause_db.ro_size ro h2 in
  let pivot =
    match clashing_vars_ro a na ro h2 nb with
    | [ v ] -> v
    | [] ->
      Diagnostics.fail
        (Diagnostics.No_clash
           {
             context;
             c1_id;
             c2_id;
             c1 = Array.sub a 0 na;
             c2 = Array.init nb (Clause_db.ro_lit ro h2);
           })
    | vars ->
      Diagnostics.fail
        (Diagnostics.Multiple_clash { context; c1_id; c2_id; vars })
  in
  let k = ref 0 and i = ref 0 and j = ref 0 in
  let merges = ref 0 in
  let emit l =
    if Sat.Lit.var l <> pivot then begin
      out.(!k) <- l;
      incr k
    end
  in
  while !i < na && !j < nb do
    let l1 = a.(!i) and l2 = Clause_db.ro_lit ro h2 !j in
    if l1 = l2 then begin
      emit l1;
      if Sat.Lit.var l1 <> pivot then incr merges;
      incr i;
      incr j
    end
    else if l1 < l2 then begin
      emit l1;
      incr i
    end
    else begin
      emit l2;
      incr j
    end
  done;
  while !i < na do
    emit a.(!i);
    incr i
  done;
  while !j < nb do
    emit (Clause_db.ro_lit ro h2 !j);
    incr j
  done;
  (!k, pivot, !merges)

(* [peek t id] is the read-only id lookup: never materialises an original,
   never mutates — the only table access worker domains are allowed. *)
let peek t id = Hashtbl.find_opt t.handles id

(* One telemetry update per completed chain: counters for the chain and
   its resolution steps, live gauges for the arena, and a sampler tick. *)
let observe_chain t ~nsources ~steps =
  if Obs.Ctl.on () then begin
    Obs.Metrics.Counter.incr m_chains 1;
    Obs.Metrics.Counter.incr m_steps steps;
    Obs.Metrics.Histogram.observe m_chain_len nsources;
    Obs.Metrics.Gauge.set m_live (float_of_int (Clause_db.live_clauses t.db));
    Obs.Metrics.Gauge.set m_arena
      (float_of_int (8 * Clause_db.live_words t.db));
    Obs.Sampler.tick ()
  end

(* [record_external_chain t ~learned_id ~steps ~merges] folds the counter
   deltas of a chain performed outside the kernel (through
   {!resolve_ro}) into the kernel's totals, so reports agree exactly
   with a sequential run.  Single-threaded: call only at a barrier. *)
let record_external_chain t ~learned_id ~steps ~merges =
  t.built <- t.built + 1;
  t.built_ids <- learned_id :: t.built_ids;
  t.built_sorted <- None;
  t.steps <- t.steps + steps;
  t.merges <- t.merges + merges;
  observe_chain t ~nsources:(steps + 1) ~steps

let chain t ~context ~fetch ~combine ~learned_id ids =
  if Array.length ids = 0 then
    Diagnostics.fail (Diagnostics.Empty_source_list learned_id);
  t.built <- t.built + 1;
  t.built_ids <- learned_id :: t.built_ids;
  t.built_sorted <- None;
  let steps_before = t.steps in
  let h0, a0 = fetch ids.(0) in
  if Array.length ids = 1 then begin
    (* a degenerate learned clause is the source clause itself *)
    Clause_db.retain t.db h0;
    observe_chain t ~nsources:1 ~steps:0;
    (h0, a0)
  end
  else begin
    let cur = ref h0 and ann = ref a0 in
    let cur_id = ref ids.(0) in
    let owned = ref false in
    for idx = 1 to Array.length ids - 1 do
      let h, a = fetch ids.(idx) in
      let r, pivot =
        resolve t ~context ~c1_id:!cur_id ~c2_id:ids.(idx) !cur h
      in
      if !owned then Clause_db.release t.db !cur;
      owned := true;
      cur := r;
      ann := combine ~pivot !ann a;
      cur_id := learned_id (* intermediate resolvents belong to the learned id *)
    done;
    observe_chain t ~nsources:(Array.length ids) ~steps:(t.steps - steps_before);
    (!cur, !ann)
  end

let unit_combine ~pivot:_ () () = ()

let chain_ids t ~context ~fetch ~learned_id ids =
  fst
    (chain t ~context
       ~fetch:(fun id -> (fetch id, ()))
       ~combine:unit_combine ~learned_id ids)

(* --- streaming traversal ----------------------------------------------- *)

type pass = {
  total_learned : int;
  final_conflict : int option;
}

type residency = [ `Full | `Defs | `None ]

let residency_words = function
  | Trace.Event.Header _ -> 2
  | Trace.Event.Learned l -> 2 + Array.length l.sources
  | Trace.Event.Level0 _ -> 3
  | Trace.Event.Final_conflict _ -> 1
  | Trace.Event.Delete ids -> 1 + Array.length ids

(* The validating pass is an incremental state machine so that it can be
   driven either by pulling from a {!Trace.Source.t} ({!stream_pass}, the
   file-based checkers) or by having events pushed into it live from the
   solver (the online validator's BF ingest).  Both drivers share the
   exact same per-event validation and meter charges, which is what makes
   online and file-based reports bit-identical. *)

type stream = {
  sk : t;
  s_stream_order : bool;
  s_l0 : Level0.t option;
  s_charge : residency;
  s_accept_hints : bool;
  seen : (int, unit) Hashtbl.t;
  mutable saw_header : bool;
  mutable s_total : int;
  mutable s_conf : int option;
}

let stream_start t ?(stream_order = true) ?l0 ?(charge = `None)
    ?(accept_hints = false) () =
  {
    sk = t;
    s_stream_order = stream_order;
    s_l0 = l0;
    s_charge = charge;
    s_accept_hints = accept_hints;
    seen = Hashtbl.create 1024;
    saw_header = false;
    s_total = 0;
    s_conf = None;
  }

let stream_feed st e =
  let t = st.sk in
  if Obs.Ctl.on () then begin
    Obs.Metrics.Counter.incr m_stream_events 1;
    Obs.Sampler.tick ()
  end;
  (match st.s_charge with
   | `Full -> Harness.Meter.alloc t.meter (residency_words e)
   | `Defs -> (
     match e with
     | Trace.Event.Learned l ->
       Harness.Meter.alloc t.meter (2 + Array.length l.sources)
     | _ -> ())
   | `None -> ());
  match e with
  | Trace.Event.Header h ->
    st.saw_header <- true;
    if h.nvars <> Sat.Cnf.nvars t.formula || h.num_original <> t.num_original
    then
      Diagnostics.fail
        (Diagnostics.Header_mismatch
           { trace_nvars = h.nvars; trace_norig = h.num_original;
             formula_nvars = Sat.Cnf.nvars t.formula;
             formula_norig = t.num_original })
  | Trace.Event.Learned l ->
    if is_original t l.id then
      Diagnostics.fail (Diagnostics.Shadows_original l.id);
    if Hashtbl.mem st.seen l.id then
      Diagnostics.fail (Diagnostics.Duplicate_definition l.id);
    if Array.length l.sources = 0 then
      Diagnostics.fail (Diagnostics.Empty_source_list l.id);
    if st.s_stream_order then
      Array.iter
        (fun s ->
          if not (is_original t s) && not (Hashtbl.mem st.seen s) then
            Diagnostics.fail
              (Diagnostics.Forward_reference { id = l.id; source = s }))
        l.sources;
    Hashtbl.replace st.seen l.id ();
    st.s_total <- st.s_total + 1
  | Trace.Event.Level0 v -> (
    match st.s_l0 with
    | Some l0 -> Level0.add l0 ~var:v.var ~value:v.value ~ante:v.ante
    | None -> ())
  | Trace.Event.Final_conflict id -> st.s_conf <- Some id
  | Trace.Event.Delete _ ->
    (* deletion hints are advice the hinted checker acts on itself; every
       other mode refuses them up front so a version-2 trace can never be
       silently mis-checked by a hint-blind strategy *)
    if not st.s_accept_hints then
      Diagnostics.fail Diagnostics.Hints_unsupported

let stream_finish st =
  if not st.saw_header then Diagnostics.fail Diagnostics.Missing_header;
  { total_learned = st.s_total; final_conflict = st.s_conf }

let stream_pass t ?stream_order ?l0 ?charge ?on_event src =
  let st = stream_start t ?stream_order ?l0 ?charge () in
  Trace.Source.iter
    (fun e ->
      stream_feed st e;
      match on_event with Some f -> f e | None -> ())
    src;
  stream_finish st

type proof = {
  sources : (int, int array) Hashtbl.t;
  l0 : Level0.t;
  final_conflict : int option;
  total_learned : int;
}

let load t ?(stream_order = false) ?(charge = `None) src =
  let sources = Hashtbl.create 1024 in
  let l0 = Level0.create () in
  let pass =
    stream_pass t ~stream_order ~l0 ~charge
      ~on_event:(function
        | Trace.Event.Learned l -> Hashtbl.replace sources l.id l.sources
        | _ -> ())
      src
  in
  {
    sources;
    l0;
    final_conflict = pass.final_conflict;
    total_learned = pass.total_learned;
  }

(* --- recursive traversal ------------------------------------------------ *)

type 'a annotation = {
  of_original : int -> Sat.Lit.t array -> 'a;
  combine : pivot:Sat.Lit.var -> 'a -> 'a -> 'a;
}

let unit_annotation =
  { of_original = (fun _ _ -> ()); combine = (fun ~pivot:_ () () -> ()) }

type 'a builder = {
  bk : t;
  bsources : (int, int array) Hashtbl.t;
  ann : (int, 'a) Hashtbl.t;
  spec : 'a annotation;
  in_progress : (int, unit) Hashtbl.t;
}

let builder t ~sources spec =
  {
    bk = t;
    bsources = sources;
    ann = Hashtbl.create 1024;
    spec;
    in_progress = Hashtbl.create 64;
  }

let context_build = "depth-first build"

let materialise_original b id =
  let h = find b.bk ~context:context_build id in
  Hashtbl.replace b.ann id (b.spec.of_original id (Clause_db.lits b.bk.db h))

(* Figure 3's recursive_build, iteratively with an explicit work stack so
   deep proofs cannot overflow the OCaml call stack. *)
let build b root =
  let k = b.bk in
  let stack = ref [ root ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | id :: rest ->
      if defined k id then begin
        Hashtbl.remove b.in_progress id;
        stack := rest
      end
      else if is_original k id then begin
        materialise_original b id;
        stack := rest
      end
      else begin
        match Hashtbl.find_opt b.bsources id with
        | None ->
          Diagnostics.fail
            (Diagnostics.Unknown_clause { context = context_build; id })
        | Some srcs ->
          let missing = ref 0 in
          Array.iter
            (fun s ->
              if !missing = 0 && not (defined k s) && not (is_original k s)
              then missing := s)
            srcs;
          (* original sources are built inline: they never recurse *)
          Array.iter
            (fun s ->
              if is_original k s && not (defined k s) then
                materialise_original b s)
            srcs;
          if !missing = 0 then begin
            let fetch s =
              (* find first: it raises Unknown_clause for ids the proof
                 never defined (e.g. a 0 source), before any annotation
                 lookup *)
              let h = find k ~context:context_build s in
              match Hashtbl.find_opt b.ann s with
              | Some a -> (h, a)
              | None ->
                (* an original materialised outside this builder *)
                let a = b.spec.of_original s (Clause_db.lits k.db h) in
                Hashtbl.replace b.ann s a;
                (h, a)
            in
            let h, a =
              chain k ~context:"learned-clause reconstruction" ~fetch
                ~combine:(fun ~pivot a1 a2 -> b.spec.combine ~pivot a1 a2)
                ~learned_id:id srcs
            in
            define k id h;
            Hashtbl.replace b.ann id a;
            Hashtbl.remove b.in_progress id;
            stack := rest
          end
          else begin
            if Hashtbl.mem b.in_progress !missing then
              Diagnostics.fail (Diagnostics.Cyclic_definition !missing);
            Hashtbl.replace b.in_progress id ();
            Hashtbl.replace b.in_progress !missing ();
            stack := !missing :: !stack
          end
      end
  done;
  let h = find b.bk ~context:context_build root in
  match Hashtbl.find_opt b.ann root with
  | Some a -> (h, a)
  | None ->
    let a = b.spec.of_original root (Clause_db.lits b.bk.db h) in
    Hashtbl.replace b.ann root a;
    (h, a)

(* --- the empty-clause construction -------------------------------------- *)

let context_final = "empty-clause construction"

let final_chain t ~l0 ~fetch ~combine ~conflict_id =
  let db = t.db in
  let h0, a0 = fetch conflict_id in
  Clause_db.iter_lits db h0 (fun l ->
      if not (Level0.lit_false l0 l) then
        Diagnostics.fail
          (Diagnostics.Final_literal_not_false
             { clause_id = conflict_id; lit = l }));
  let cur = ref h0 and ann = ref a0 in
  let cur_id = ref conflict_id in
  let owned = ref false in
  let steps = ref 0 in
  while Clause_db.size db !cur > 0 do
    (* reverse chronological choice: the literal whose variable was
       assigned last — the paper's choose_literal, which guarantees
       termination in at most n resolutions *)
    let v = ref (-1) and best = ref (-1) in
    Clause_db.iter_lits db !cur (fun l ->
        let u = Sat.Lit.var l in
        let o = Level0.order l0 u in
        if o > !best then begin
          best := o;
          v := u
        end);
    let v = !v in
    let ante_id = Level0.ante l0 v in
    let ha, aa = fetch ante_id in
    (match Level0.check_antecedent l0 ~var:v (Clause_db.lits db ha) with
     | None -> ()
     | Some reason ->
       Diagnostics.fail
         (Diagnostics.Antecedent_mismatch { var = v; ante = ante_id; reason }));
    let r, pivot =
      resolve t ~context:context_final ~c1_id:!cur_id ~c2_id:ante_id !cur ha
    in
    if pivot <> v then
      Diagnostics.fail
        (Diagnostics.Wrong_pivot
           { context = context_final; expected = v; actual = pivot });
    if !owned then Clause_db.release db !cur;
    owned := true;
    incr steps;
    ann := combine ~pivot !ann aa;
    cur := r;
    cur_id := -1 (* intermediate chain resolvent *)
  done;
  if !owned then Clause_db.release db !cur;
  (!ann, !steps)

let final_chain_ids t ~l0 ~fetch ~conflict_id =
  snd
    (final_chain t ~l0
       ~fetch:(fun id -> (fetch id, ()))
       ~combine:unit_combine ~conflict_id)

(* --- counters ----------------------------------------------------------- *)

type counters = {
  clauses_built : int;
  resolution_steps : int;
  merged_literals : int;
  peak_live_clauses : int;
  arena_peak_bytes : int;
}

let counters t =
  {
    clauses_built = t.built;
    resolution_steps = t.steps;
    merged_literals = t.merges;
    peak_live_clauses = Clause_db.peak_live_clauses t.db;
    arena_peak_bytes = 8 * Clause_db.peak_words t.db;
  }

let resolution_steps t = t.steps

(* Both sorted views are memoised: they are re-read per report (and the
   hybrid re-reads the core for its report too), and an O(n log n) sort
   per call shows up on large traces.  The caches are invalidated on the
   two mutation points — {!chain}/{!record_external_chain} for built ids,
   original materialisation in {!find} for the core. *)
let built_ids t =
  match t.built_sorted with
  | Some ids -> ids
  | None ->
    let ids = List.sort Int.compare t.built_ids in
    t.built_sorted <- Some ids;
    ids

let core_ids t =
  match t.core_sorted with
  | Some ids -> ids
  | None ->
    let ids =
      List.sort Int.compare
        (Hashtbl.fold (fun id () acc -> id :: acc) t.core [])
    in
    t.core_sorted <- Some ids;
    ids

let core_var_count t =
  let seen = Hashtbl.create 64 in
  Hashtbl.iter
    (fun id () ->
      Array.iter
        (fun l -> Hashtbl.replace seen (Sat.Lit.var l) ())
        (Sat.Cnf.clause t.formula (id - 1)))
    t.core;
  Hashtbl.length seen
