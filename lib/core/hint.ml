(* Hinted one-pass checking (trace format version 2) on the forward
   replay: the trace's delete hints carry each clause's last use, so
   every learned record is rebuilt and defined the moment it arrives, in
   the validating pass itself, and freed the moment a hint says its uses
   are drained.  Hints are advice about memory, never about validity: a
   wrong hint can only make the check fail (a clause referenced after its
   delete hint) or retain clauses longer.  A version-1 trace simply never
   frees, so verdicts and diagnostics match breadth-first's. *)

let check ?meter ?format ?io ?first_pass formula source =
  let fw = Forward.create ?meter ~hints:true ~count:false formula in
  let kernel = Forward.kernel fw in
  let context = "hinted one-pass reconstruction" in
  (* ids already freed by a hint, kept only to diagnose bad hints — the
     hot path never touches this table until something goes wrong *)
  let deleted = Hashtbl.create 256 in
  let src = Forward.source ?first_pass ?format ?io source in
  let bad_hint id reason =
    Diagnostics.fail
      (Diagnostics.Positioned
         {
           pos = Trace.Source.last_pos src;
           failure = Diagnostics.Bad_delete_hint { id; reason };
         })
  in
  (* Every clause lookup funnels through here so a reference to a clause
     a hint already freed is reported as the bad hint it is, not as a
     bare unknown id. *)
  let fetch id =
    match Proof.Kernel.peek kernel id with
    | Some h -> h
    | None ->
      if Hashtbl.mem deleted id then
        bad_hint id "is referenced after its delete hint"
      else Proof.Kernel.find kernel ~context id
  in
  let delete ids =
    Array.iter
      (fun id ->
        match Proof.Kernel.peek kernel id with
        | Some _ ->
          Hashtbl.replace deleted id ();
          Proof.Kernel.release_id kernel id
        | None ->
          if Hashtbl.mem deleted id then bad_hint id "is deleted twice"
          else if Proof.Kernel.is_original kernel id then
            bad_hint id "is an original clause that was never referenced"
          else bad_hint id "is not defined at this point in the trace")
      ids
  in
  let p = { (Forward.policy fw ~context) with fetch; final_fetch = fetch } in
  Forward.guard (fun () ->
      let pass_one_seconds =
        Forward.pass_one fw ~cat:"hint" ~name:"check.one_pass"
          ~on_event:(fun e ->
            match e with
            | Trace.Event.Learned { id; sources } ->
              Forward.record fw p ~id ~sources
            | Trace.Event.Delete ids -> delete ids
            | Trace.Event.Header _ | Trace.Event.Level0 _
            | Trace.Event.Final_conflict _ -> ())
          src
      in
      let total_learned, conf_id = Forward.conclude fw in
      ignore (Forward.final fw p conf_id : int);
      Forward.report kernel ~total_learned ~pass_one_seconds
        ~pass_two_seconds:0.)
