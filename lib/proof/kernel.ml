(* --- the chain accumulator ---------------------------------------------- *)

(* A chain's running resolvent as per-variable stamps (minisat's [seen]
   idiom): [stamp.(v)] is [gen lsl 2 lor mask], mask bit 1 for the
   positive and bit 2 for the negative phase.  An older generation reads
   as absent, so {!Acc.start} clears the last chain in O(1).  [vars] lists
   the variables stamped this chain, cleared pivots included. *)
module Acc = struct
  type t = {
    mutable gen : int;
    mutable stamp : int array;
    mutable vars : int array;
    mutable nvars : int;      (* entries used in [vars] *)
    mutable live : int;       (* literals in the running resolvent *)
    mutable merges : int;     (* literals both operands held, this chain *)
  }

  let create () =
    { gen = 1; stamp = [||]; vars = [||]; nvars = 0; live = 0; merges = 0 }

  let start a =
    a.gen <- a.gen + 1;
    a.nvars <- 0;
    a.live <- 0;
    a.merges <- 0

  let size a = a.live
  let merges a = a.merges
  let phase_bit l = 1 lsl (l land 1)
  let mask a v = if a.stamp.(v) lsr 2 = a.gen then a.stamp.(v) land 3 else 0
  let clashes a l = mask a (Sat.Lit.var l) land phase_bit (Sat.Lit.negate l) <> 0

  let grow arr len n =
    let arr' = Array.make (max n (2 * Array.length arr)) 0 in
    Array.blit arr 0 arr' 0 len;
    arr'

  (* Room for the sorted run [r.{off .. off+n-1}]: its last literal holds
     its largest variable, and it adds at most [n] variables. *)
  let reserve a (r : Clause_db.region) off n =
    let top = if n = 0 then 0 else Sat.Lit.var r.{off + n - 1} in
    if top >= Array.length a.stamp then
      a.stamp <- grow a.stamp (Array.length a.stamp) (top + 1);
    if a.nvars + n > Array.length a.vars then
      a.vars <- grow a.vars a.nvars (a.nvars + n)

  let add a l =
    let v = Sat.Lit.var l and bit = phase_bit l in
    if a.stamp.(v) lsr 2 <> a.gen then begin
      a.stamp.(v) <- a.gen lsl 2;
      a.vars.(a.nvars) <- v;
      a.nvars <- a.nvars + 1
    end;
    if a.stamp.(v) land bit <> 0 then a.merges <- a.merges + 1
    else begin
      a.stamp.(v) <- a.stamp.(v) lor bit;
      a.live <- a.live + 1
    end

  let load a (r : Clause_db.region) off n =
    reserve a r off n;
    for i = off to off + n - 1 do add a r.{i} done

  (* In-place ascending quicksort of the distinct ints [x.(lo .. hi)]. *)
  let rec sort x lo hi =
    if lo < hi then begin
      let p = x.((lo + hi) / 2) in
      let i = ref lo and j = ref hi in
      while !i <= !j do
        while x.(!i) < p do incr i done;
        while x.(!j) > p do decr j done;
        if !i <= !j then begin
          let y = x.(!i) in
          x.(!i) <- x.(!j);
          x.(!j) <- y;
          incr i;
          decr j
        end
      done;
      sort x lo !j;
      sort x !i hi
    end

  (* Drop cleared variables from [vars] (unstamping them, so a later [add]
     lists them again), sort the rest, and write their literals. *)
  let finish a (out : Clause_db.region) =
    let k = ref 0 in
    for i = 0 to a.nvars - 1 do
      let v = a.vars.(i) in
      if mask a v = 0 then a.stamp.(v) <- 0
      else (a.vars.(!k) <- v; incr k)
    done;
    a.nvars <- !k;
    sort a.vars 0 (!k - 1);
    let n = ref 0 in
    for i = 0 to !k - 1 do
      let v = a.vars.(i) and m = mask a a.vars.(i) in
      if m land 1 <> 0 then (out.{!n} <- Sat.Lit.pos v; incr n);
      if m land 2 <> 0 then (out.{!n} <- Sat.Lit.neg v; incr n)
    done;
    !n

  let to_lits a =
    let out = Clause_db.make_region a.live in
    Array.init (finish a out) (fun i -> out.{i})

  (* The one checked resolution: the paper's side condition (exactly one
     clashing variable) is enforced here and nowhere else.  A failure
     names the running resolvent and the source (no clash), or the
     clashing variables in ascending order. *)
  let step a ~context ~c1_id ~c2_id (r : Clause_db.region) off n =
    reserve a r off n;
    let vars = ref [] in
    for i = off + n - 1 downto off do
      let v = Sat.Lit.var r.{i} in
      if clashes a r.{i} && (match !vars with u :: _ -> u <> v | [] -> true)
      then vars := v :: !vars
    done;
    match !vars with
    | [ p ] ->
      for i = off to off + n - 1 do
        if Sat.Lit.var r.{i} <> p then add a r.{i}
      done;
      a.live <- a.live - (mask a p land 1) - (mask a p lsr 1);
      a.stamp.(p) <- a.gen lsl 2;
      p
    | [] ->
      Diagnostics.fail
        (Diagnostics.No_clash
           { context; c1_id; c2_id; c1 = to_lits a;
             c2 = Array.init n (fun i -> r.{off + i}) })
    | vars ->
      Diagnostics.fail
        (Diagnostics.Multiple_clash { context; c1_id; c2_id; vars })

  (* [choose a order] is the live variable with the largest [order]. *)
  let choose a order =
    let v = ref (-1) and best = ref (-1) in
    for i = 0 to a.nvars - 1 do
      let u = a.vars.(i) in
      if mask a u <> 0 && order u > !best then (best := order u; v := u)
    done;
    !v
end

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
  acc : Acc.t;                                  (* {!chain}'s accumulator *)
  mutable acc_busy : bool;                      (* a {!chain} is running *)
  mutable scratch : Clause_db.region;           (* {!chain}'s resolvent *)
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
    acc = Acc.create ();
    acc_busy = false;
    scratch = Clause_db.make_region 64;
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

let region db = Clause_db.ro_region (Clause_db.freeze db)

let load_clause t a h =
  Acc.load a (region t.db) (Clause_db.lits_offset h) (Clause_db.size t.db h)

(* One counted step against store clause [h] behind [size]'s lifetime
   guard; the region is re-read, as a [fetch] may have grown the arena. *)
let step_clause t a ~context ~c1_id ~c2_id h =
  let n = Clause_db.size t.db h in
  let pivot =
    Acc.step a ~context ~c1_id ~c2_id (region t.db) (Clause_db.lits_offset h) n
  in
  t.steps <- t.steps + 1;
  pivot

(* [with_acc t f] runs [f] on the kernel's accumulator, or on a fresh one
   when a [fetch] runs a chain inside another: nested chains never share
   running state. *)
let with_acc t f =
  if t.acc_busy then f (Acc.create ())
  else begin
    t.acc_busy <- true;
    Fun.protect ~finally:(fun () -> t.acc_busy <- false) (fun () -> f t.acc)
  end

let resolve_lits t ~context ~c1_id ~c2_id c1 c2 =
  let h1 = Clause_db.alloc t.db c1 in
  let h2 = Clause_db.alloc t.db c2 in
  with_acc t @@ fun a ->
  Acc.start a;
  load_clause t a h1;
  let pivot = step_clause t a ~context ~c1_id ~c2_id h2 in
  t.merges <- t.merges + Acc.merges a;
  Clause_db.release t.db h1;
  Clause_db.release t.db h2;
  (Acc.to_lits a, pivot)

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
   deltas of a chain a worker domain ran on its own accumulator into the
   kernel's totals, so reports agree exactly with a sequential run.
   Single-threaded: call only at a barrier. *)
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
  let n = Array.length ids in
  let h0, a0 = fetch ids.(0) in
  if n = 1 then begin
    (* a degenerate learned clause is the source clause itself *)
    Clause_db.retain t.db h0;
    observe_chain t ~nsources:1 ~steps:0;
    (h0, a0)
  end
  else
    with_acc t @@ fun a ->
    Acc.start a;
    load_clause t a h0;
    let ann = ref a0 in
    for idx = 1 to n - 1 do
      let h, a' = fetch ids.(idx) in
      (* intermediate resolvents belong to the learned id *)
      let c1_id = if idx = 1 then ids.(0) else learned_id in
      let pivot = step_clause t a ~context ~c1_id ~c2_id:ids.(idx) h in
      ann := combine ~pivot !ann a'
    done;
    t.merges <- t.merges + Acc.merges a;
    t.scratch <- Clause_db.ensure_region t.scratch (Acc.size a);
    let h = Clause_db.alloc_sorted t.db t.scratch (Acc.finish a t.scratch) in
    observe_chain t ~nsources:n ~steps:(n - 1);
    (h, !ann)

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
  let h0, a0 = fetch conflict_id in
  Clause_db.iter_lits t.db h0 (fun l ->
      if not (Level0.lit_false l0 l) then
        Diagnostics.fail
          (Diagnostics.Final_literal_not_false
             { clause_id = conflict_id; lit = l }));
  (* a fresh accumulator of its own: [fetch] may build, running chains *)
  let a = Acc.create () in
  load_clause t a h0;
  let ann = ref a0 in
  let steps = ref 0 in
  while Acc.size a > 0 do
    (* reverse chronological choice: the literal whose variable was
       assigned last — the paper's choose_literal, which guarantees
       termination in at most n resolutions *)
    let v = Acc.choose a (Level0.order l0) in
    let ante_id = Level0.ante l0 v in
    let ha, aa = fetch ante_id in
    (match Level0.check_antecedent l0 ~var:v (Clause_db.lits t.db ha) with
     | None -> ()
     | Some reason ->
       Diagnostics.fail
         (Diagnostics.Antecedent_mismatch { var = v; ante = ante_id; reason }));
    let c1_id = if !steps = 0 then conflict_id else -1 (* intermediate *) in
    let pivot =
      step_clause t a ~context:context_final ~c1_id ~c2_id:ante_id ha
    in
    if pivot <> v then
      Diagnostics.fail
        (Diagnostics.Wrong_pivot
           { context = context_final; expected = v; actual = pivot });
    incr steps;
    ann := combine ~pivot !ann aa
  done;
  t.merges <- t.merges + Acc.merges a;
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
