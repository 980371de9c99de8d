type t = {
  learned_total : int;
  learned_needed : int;
  resolution_steps : int;
  dag_depth : int;
  max_clause_width : int;
  mean_clause_width : float;
  final_chain_length : int;
}

(* Measure while rebuilding every record in the validating pass, as the
   hinted checker does on a version-1 trace (nothing is freed): clause
   literals give widths, the source lists give DAG depth (originals have
   depth 0), and the hybrid's reverse sweep gives the needed set. *)
let analyze formula source =
  let fw = Forward.create ~count:false formula in
  let k = Forward.kernel fw in
  let p = Forward.policy fw ~context:"proof statistics" in
  let p = { p with final_fetch = p.fetch } in
  let depth = Hashtbl.create 1024 in
  let defs = Sat.Vec.create ~dummy:(0, [||]) in
  let antes = Sat.Vec.create ~dummy:0 in
  let width_sum = ref 0 in
  let width_max = ref 0 in
  let depth_of id =
    if Proof.Kernel.is_original k id then 0
    else Option.value ~default:0 (Hashtbl.find_opt depth id)
  in
  Forward.guard (fun () ->
      Forward.drain fw
        ~on_event:(fun e ->
          match e with
          | Trace.Event.Header _ | Trace.Event.Final_conflict _
          | Trace.Event.Delete _ -> ()
          | Trace.Event.Learned { id; sources } ->
            Forward.record fw p ~id ~sources;
            let h = Option.get (Proof.Kernel.peek k id) in
            let w = Proof.Clause_db.size (Proof.Kernel.db k) h in
            width_sum := !width_sum + w;
            if w > !width_max then width_max := w;
            Hashtbl.replace depth id
              (1 + Array.fold_left (fun acc s -> max acc (depth_of s)) 0 sources);
            Sat.Vec.push defs (id, sources)
          | Trace.Event.Level0 v -> Sat.Vec.push antes v.ante)
        (Forward.source source);
      let total, conf_id = Forward.conclude fw in
      (* run the final chain for its length and validity *)
      let final_chain_length = Forward.final fw p conf_id in
      let learned_needed =
        Hashtbl.fold
          (fun id _ acc -> if Proof.Kernel.is_original k id then acc else acc + 1)
          (Forward.reachable ~defs ~antes conf_id)
          0
      in
      {
        learned_total = total;
        learned_needed;
        resolution_steps = Proof.Kernel.resolution_steps k;
        dag_depth =
          Sat.Vec.fold (fun acc id -> max acc (depth_of id)) (depth_of conf_id)
            antes;
        max_clause_width = !width_max;
        mean_clause_width =
          (if total = 0 then 0.0
           else float_of_int !width_sum /. float_of_int total);
        final_chain_length;
      })

let pp fmt s =
  Format.fprintf fmt
    "@[<v>learned: %d (%d needed)@,resolution steps: %d@,DAG depth: %d@,\
     clause width: mean %.1f, max %d@,final chain: %d steps@]"
    s.learned_total s.learned_needed s.resolution_steps s.dag_depth
    s.mean_clause_width s.max_clause_width s.final_chain_length
