(** Trace serialization.

    The paper's PGO flow is artifact-based: a profiling run writes traces
    and the compiler reads them back (§3.2).  This module provides the
    same round trip for workload traces — a recorded trace can be saved
    to a file and replayed without regenerating it, and inspected with
    ordinary text tools.  (Instrumentation plans have their own round
    trip in the core library's [Plan_io].)

    The format is line-oriented text:

    {v
    # sgx-preload trace v1
    name <string>
    elrange <pages>
    footprint <pages>
    site <id> <label>          (zero or more)
    a <site> <vpage> <compute> <thread>   (one access per line)
    v} *)

val save_trace : Trace.t -> path:string -> unit
(** Materialise the trace's events into [path].  The file replays the
    exact event stream (the generator is not stored). *)

val load_trace : path:string -> (Trace.t, string) result
(** Read a trace saved by {!save_trace}.  The returned trace replays the
    recorded events verbatim (its stored seed is irrelevant).  A file
    that cannot be opened, or a malformed one, is an [Error] naming the
    file and, for a parse error, the line: a malformed or negative
    field, a missing or non-positive [elrange] or [footprint], a
    footprint past the elrange, or an access to a page outside
    [\[0, elrange)]. *)
