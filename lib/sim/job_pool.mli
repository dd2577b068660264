(** A [Unix.fork]-based worker pool for the experiment matrix.

    The paper's evaluation is a grid of independent (workload, input,
    scheme) simulations; each cell is CPU-bound, deterministic and
    allocation-heavy, which makes processes (not threads or domains) the
    right isolation unit: every worker gets its own heap and its own
    minor-GC clock, and a crash in one cell cannot corrupt another's
    state.  Stress-SGX and the SGX benchmarking harnesses of Kumar et
    al. use the same multi-process shape for the same reason.

    Guarantees:

    - {b Determinism.}  Results are merged in submission order, whatever
      order workers finish in.  Since every job is a pure function of
      its closure (no shared mutable state survives the fork), running
      with [jobs = N] returns a list structurally equal to the
      [jobs = 1] run — the experiment layer turns that into
      byte-identical tables.
    - {b Fast path.}  With [jobs <= 1] (or fewer than two jobs) nothing
      forks: the jobs run inline in the calling process, exceptions
      propagate unchanged, and behaviour is exactly that of [List.map].
    - {b Crash containment.}  A job that raises inside a worker is
      reported to the parent and re-raised as {!Job_failed} carrying the
      job's label; a worker that dies without reporting (segfault,
      [kill -9], OOM) is detected from its exit status and named.

    {!run_hardened} is the resilient variant, which the one cell runner
    ({!Experiments.run_cells}) picks for every matrix once a hardening
    option is set: one forked process per cell,
    per-cell wall-clock timeout (hung workers are SIGKILLed), bounded
    retry with exponential backoff, keep-going semantics (every cell
    yields a [result]; a failure never discards completed neighbours),
    and an on-disk cell journal enabling [--resume].

    Constraints: job results travel through [Marshal] on a pipe, so they
    must not contain closures or custom blocks; jobs must not print
    (their stdout is shared with the parent — output belongs to the
    merge phase, after {!run} returns).  The pool is not reentrant:
    jobs must not themselves call {!run} with [jobs > 1]. *)

type 'a job = { label : string; run : unit -> 'a }

val job : label:string -> (unit -> 'a) -> 'a job
(** Failure-path test plumbing: if the environment variable
    [SGX_PRELOAD_FAIL_CELL] (resp. [SGX_PRELOAD_HANG_CELL]) holds a
    substring of [label], the job raises (resp. sleeps forever) when
    executed instead of running its body — letting shelled-out tests
    drive crash containment, timeouts, retry and keep-going through the
    real CLI.  Unset in normal operation. *)

exception Job_failed of { label : string; reason : string }
(** A job raised in its worker ([reason] is the printed exception), or
    its worker died before reporting a result ([reason] describes the
    exit status). *)

type failure = { label : string; reason : string; attempts : int }
(** A cell that exhausted its retry budget.  [attempts] counts actual
    executions, so it equals [retries + 1] for a cell that failed every
    attempt. *)

val describe : failure -> string
(** ["label: reason (n attempt(s))"], the one line every driver prints
    for a lost cell. *)

val run : ?jobs:int -> 'a job list -> 'a list
(** [run ~jobs js] executes every job and returns their results in
    submission order.  [jobs] (default 1) bounds the number of
    concurrent worker processes; it is clamped to the number of jobs.

    @raise Job_failed on the first failing job in submission order.
    @raise Invalid_argument if [jobs] exceeds 1024 (a driver bug, not a
    machine size). *)

val run_hardened :
  ?jobs:int ->
  ?timeout:float ->
  ?retries:int ->
  ?backoff:float ->
  ?journal:string ->
  ?resume:bool ->
  ?journal_key:string ->
  'a job list ->
  ('a, failure) result list
(** Keep-going execution: every cell yields [Ok value] or
    [Error failure], merged in submission order.  Cells always run in
    forked processes (even at [jobs = 1]) so [timeout] (seconds of
    wall-clock per attempt) can SIGKILL a hung cell.  A failing cell is
    re-run up to [retries] times (default 0), waiting
    [backoff * 2^(attempt-1)] seconds between attempts (default backoff
    0.5s).

    [journal] names a checkpoint file: each completed cell is appended
    and flushed as it finishes, keyed by [journal_key] plus a digest of
    the submitted label list.  With [resume:true], cells already present
    in a matching journal are returned without re-execution; a journal
    written for a different matrix or key is ignored (and overwritten).
    A torn final record from an interrupted run is tolerated.  Progress
    notes go to stderr only, keeping stdout byte-identical across [-j].

    @raise Invalid_argument if [jobs > 1024] or [retries < 0]. *)

val default_jobs : unit -> int
(** A sensible [-j] default for "use the machine": the number of online
    processors as reported by [getconf _NPROCESSORS_ONLN], or 1 when
    that cannot be determined. *)

val status_reason : Unix.process_status -> string
(** Human-readable description of a worker exit status (exposed for
    tests and drivers). *)
