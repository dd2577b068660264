let save (plan : Sip_instrumenter.plan) ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "# sgx-preload plan v1\n";
      Printf.fprintf oc "workload %s\n" plan.workload;
      Printf.fprintf oc "threshold %.6f\n" plan.threshold;
      List.iter
        (fun (d : Sip_instrumenter.decision) ->
          Printf.fprintf oc "s %d %d %d %d %d\n" d.site d.counts.Sip_profiler.c1
            d.counts.Sip_profiler.c2 d.counts.Sip_profiler.c3
            (if d.instrument then 1 else 0))
        plan.decisions)

exception Bad_line of int * string

let parse path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let lineno = ref 0 in
      let read () =
        incr lineno;
        input_line ic
      in
      let fail msg = raise (Bad_line (!lineno, msg)) in
      let int_of field s =
        match int_of_string_opt s with
        | Some n -> n
        | None -> fail (Printf.sprintf "malformed %s field %S" field s)
      in
      (* An empty file has no header line either. *)
      let header = try read () with End_of_file -> "" in
      if header <> "# sgx-preload plan v1" then fail "unrecognised header";
      let workload = ref None and threshold = ref None in
      let decisions = ref [] in
      let seen_sites = Hashtbl.create 64 in
      let set field cell value =
        if Option.is_some !cell then
          fail (Printf.sprintf "duplicate %s line" field);
        cell := Some value
      in
      (try
         while true do
           let line = read () in
           match String.split_on_char ' ' line with
           | "workload" :: rest ->
             set "workload" workload (String.concat " " rest)
           | [ "threshold"; x ] -> (
             match float_of_string_opt x with
             | Some v -> set "threshold" threshold v
             | None -> fail (Printf.sprintf "malformed threshold field %S" x))
           | [ "s"; site; c1; c2; c3; instrument ] ->
             let site = int_of "site" site in
             if Hashtbl.mem seen_sites site then
               fail (Printf.sprintf "duplicate site %d" site);
             Hashtbl.add seen_sites site ();
             let counts =
               {
                 Sip_profiler.c1 = int_of "c1" c1;
                 c2 = int_of "c2" c2;
                 c3 = int_of "c3" c3;
               }
             in
             decisions :=
               {
                 Sip_instrumenter.site;
                 counts;
                 ratio = Sip_profiler.irregular_ratio counts;
                 instrument = int_of "instrument" instrument <> 0;
               }
               :: !decisions
           | [ "" ] -> ()
           | _ -> fail "unrecognised line"
         done
       with End_of_file -> ());
      let require field = function
        | Some v -> v
        | None -> fail (Printf.sprintf "missing %s line" field)
      in
      {
        Sip_instrumenter.workload = require "workload" !workload;
        threshold = require "threshold" !threshold;
        decisions = List.rev !decisions;
      })

let load ~path =
  match parse path with
  | plan -> Ok plan
  | exception Bad_line (line, msg) ->
    Error (Printf.sprintf "Plan_io.load: %s, line %d: %s" path line msg)
  | exception Sys_error msg -> Error ("Plan_io.load: " ^ msg)
