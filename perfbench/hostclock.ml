(* Host-side measurement primitives: a nanosecond monotonic clock and a
   minor-heap word counter that allocate nothing (so they can bracket a
   single replayed event), plus the process's peak resident memory. *)

(* CLOCK_MONOTONIC through the stub bechamel ships; declared here with an
   unboxed result so a read is a register move, not a boxed Int64. *)
external monotonic_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now_ns () = Int64.to_int (monotonic_ns ())

(* [Gc.minor_words] is an unboxed-float external: no allocation either. *)
let minor_words () = int_of_float (Gc.minor_words ())

let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9

(* Peak resident set size (VmHWM) in MiB.  Arenas and page tables live
   off the OCaml heap, so the GC's own heap figures understate memory. *)
let max_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
        (fun kb -> Some (float_of_int kb /. 1024.))
    | _ -> scan ()
    | exception End_of_file -> None
  in
  let v = Fun.protect ~finally:(fun () -> close_in ic) scan in
  match v with Some mb -> mb | None -> failwith "VmHWM not found in /proc/self/status"
