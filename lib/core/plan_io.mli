(** Instrumentation-plan serialization.

    The paper's SIP flow hands the profiling result to the compiler as an
    artifact; this module provides the same decoupling for the simulator:
    profile once, save the plan, run the instrumented binary any number of
    times.  Line-oriented text:

    {v
    # sgx-preload plan v1
    workload <string>
    threshold <float>
    s <site> <c1> <c2> <c3> <0|1>     (one decision per line)
    v} *)

val save : Sip_instrumenter.plan -> path:string -> unit

val load : path:string -> (Sip_instrumenter.plan, string) result
(** A file that cannot be opened, or a malformed one, is an [Error]
    naming the file and, for a parse error, the line. *)
