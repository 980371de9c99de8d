(* Breadth-first checking on the forward replay: count every use in pass
   one, rebuild every learned record in pass two, free at use count zero.
   Records with no use are validated but not stored. *)

type counting = [ `In_memory | `Temp_file of int (* chunk size *) ]

type ingest = Forward.t

let ingest ?meter formula = Forward.create ?meter formula
let ingest_event g e = Forward.feed g e
let ingest_sink = Forward.sink
let ingest_failed = Forward.failed

let replay ?format ?io ~pass_one_seconds g source =
  Forward.replay g
    (Forward.policy g ~context:"breadth-first reconstruction")
    ~cat:"bf" ?format ?io ~pass_one_seconds source

let finish ?format ?io ?(pass_one_seconds = 0.) g source =
  Forward.guard (fun () -> replay ?format ?io ~pass_one_seconds g source)

let check ?meter ?format ?io ?(counting = `In_memory) ?first_pass formula
    source =
  let g = Forward.create ?meter ~count:(counting = `In_memory) formula in
  let r =
    Forward.guard (fun () ->
        let pass_one_seconds =
          Forward.pass_one g ~cat:"bf"
            (Forward.source ?first_pass ?format ?io source)
        in
        (match counting with
         | `In_memory -> ()
         | `Temp_file chunk ->
           (* the paper's chunked counting passes re-read the trace from
              its re-readable source; only now is a spooled stream
              complete *)
           Forward.count_to_file g ?format ?io ~chunk source);
        replay ?format ?io ~pass_one_seconds g source)
  in
  Forward.close g;
  r
