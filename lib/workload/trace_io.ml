let save_trace (trace : Trace.t) ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "# sgx-preload trace v1\n";
      Printf.fprintf oc "name %s\n" trace.name;
      Printf.fprintf oc "elrange %d\n" trace.elrange_pages;
      Printf.fprintf oc "footprint %d\n" trace.footprint_pages;
      List.iter
        (fun (site, label) -> Printf.fprintf oc "site %d %s\n" site label)
        trace.sites;
      Seq.iter
        (fun (a : Access.t) ->
          Printf.fprintf oc "a %d %d %d %d\n" a.site a.vpage a.compute a.thread)
        (Trace.events trace))

exception Bad_line of int * string

let load path =
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
      let field name s =
        let n = int_of name s in
        if n < 0 then fail (Printf.sprintf "negative %s %d" name n);
        n
      in
      (* An empty file has no header line either. *)
      let header = try read () with End_of_file -> "" in
      if header <> "# sgx-preload trace v1" then fail "unrecognised header";
      let name = ref "" and elrange = ref 0 and footprint = ref 0 in
      let sites = ref [] in
      let accesses = ref [] in
      (* The highest page and its line: the ELRANGE check runs once the
         whole file (and so the elrange line) has been read. *)
      let top_page = ref (-1) and top_line = ref 0 in
      (try
         while true do
           let line = read () in
           match String.split_on_char ' ' line with
           | "name" :: rest -> name := String.concat " " rest
           | [ "elrange"; n ] -> elrange := int_of "elrange" n
           | [ "footprint"; n ] -> footprint := int_of "footprint" n
           | "site" :: id :: label ->
             sites := (int_of "site" id, String.concat " " label) :: !sites
           | [ "a"; site; vpage; compute; thread ] ->
             let site = field "site" site in
             let vpage = field "vpage" vpage in
             let compute = field "compute" compute in
             let thread = field "thread" thread in
             if vpage > !top_page then begin
               top_page := vpage;
               top_line := !lineno
             end;
             accesses :=
               Access.make ~site ~vpage ~compute ~thread () :: !accesses
           | [ "" ] -> ()
           | _ -> fail "unrecognised line"
         done
       with End_of_file -> ());
      if !elrange <= 0 then fail "missing or invalid elrange";
      if !footprint <= 0 then fail "missing or invalid footprint";
      if !footprint > !elrange then
        fail
          (Printf.sprintf "footprint %d exceeds elrange %d" !footprint !elrange);
      if !top_page >= !elrange then begin
        lineno := !top_line;
        fail
          (Printf.sprintf "page %d outside elrange [0,%d)" !top_page !elrange)
      end;
      Trace.make ~name:!name ~elrange_pages:!elrange ~footprint_pages:!footprint
        ~seed:0 ~sites:(List.rev !sites)
        (Pattern.of_events (List.rev !accesses)))

let load_trace ~path =
  match load path with
  | trace -> Ok trace
  | exception Bad_line (line, msg) ->
    Error (Printf.sprintf "Trace_io.load_trace: %s, line %d: %s" path line msg)
  | exception Sys_error msg -> Error ("Trace_io.load_trace: " ^ msg)
