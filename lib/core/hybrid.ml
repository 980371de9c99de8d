(* The paper's §5 future-work checker on the forward replay: pass one
   keeps only the resolve-source id lists (charged to the meter, like
   DF's trace residency but literal-free), the reverse sweep gives the
   reachable set and its use counts, the lists are released, and pass two
   rebuilds only the reachable records, freeing at use count zero. *)

let check ?meter ?format ?io ?first_pass formula source =
  let fw = Forward.create ?meter ~charge:`Defs ~count:false formula in
  let p =
    {
      (Forward.policy fw ~context:"hybrid reconstruction") with
      rebuild = Forward.used fw;
    }
  in
  let defs = Sat.Vec.create ~dummy:(0, [||]) in
  let antes = Sat.Vec.create ~dummy:0 in
  Forward.guard (fun () ->
      let pass_one_seconds =
        Forward.pass_one fw ~cat:"hybrid"
          ~on_event:(fun e ->
            match e with
            | Trace.Event.Learned l -> Sat.Vec.push defs (l.id, l.sources)
            | Trace.Event.Level0 v -> Sat.Vec.push antes v.ante
            | Trace.Event.Header _ | Trace.Event.Final_conflict _
            | Trace.Event.Delete _ -> ())
          (Forward.source ?first_pass ?format ?io source)
      in
      Forward.replay fw p ~cat:"hybrid" ?format ?io ~core:true
        ~pass_one_seconds
        ~prepare:(fun conf_id ->
          Forward.use_counts fw (Forward.reachable ~defs ~antes conf_id);
          (* release the source lists: pass two re-reads them *)
          let words =
            Sat.Vec.fold (fun acc (_, s) -> acc + 2 + Array.length s) 0 defs
          in
          Sat.Vec.clear defs;
          Harness.Meter.free (Proof.Kernel.meter (Forward.kernel fw)) words)
        source)
