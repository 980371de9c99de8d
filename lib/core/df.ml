(* Depth-first checking (§3.2, Figure 3) on the shared kernel: load the
   whole trace (charged to the meter — the paper's stated DF
   disadvantage), then reconstruct on demand through the resolve-source
   DAG from the final conflict, so only proof-relevant clauses are ever
   built and the touched originals form an unsat core.  It shares only
   the source, error and report frame with the forward replay. *)

let check ?meter ?format ?io ?first_pass formula source =
  let k = Proof.Kernel.create ?meter formula in
  Forward.guard (fun () ->
      (* depth-first reads the trace exactly once, so the whole check can
         run off a single-shot stream (pipe/FIFO) with no re-read *)
      let src = Forward.source ?first_pass ?format ?io source in
      let proof, pass_one_seconds =
        Forward.timed ~cat:"df" "check.pass_one" (fun () ->
            Fun.protect
              ~finally:(fun () -> Trace.Source.close src)
              (fun () -> Proof.Kernel.load k ~charge:`Full src))
      in
      let conf_id = Forward.conflict proof.Proof.Kernel.final_conflict in
      let (), pass_two_seconds =
        Forward.timed ~cat:"df" "check.pass_two" (fun () ->
            let b =
              Proof.Kernel.builder k ~sources:proof.Proof.Kernel.sources
                Proof.Kernel.unit_annotation
            in
            let fetch id = fst (Proof.Kernel.build b id) in
            let (_ : int) =
              Proof.Kernel.final_chain_ids k ~l0:proof.Proof.Kernel.l0 ~fetch
                ~conflict_id:conf_id
            in
            ())
      in
      Forward.report k ~core:true
        ~total_learned:proof.Proof.Kernel.total_learned ~pass_one_seconds
        ~pass_two_seconds)
