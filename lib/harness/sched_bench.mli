(** End-to-end service benchmark for the fiber scheduler (Wfq_sched):
    request fan-out with mixed CPU work and queue hops, swept over
    run-queue backends and domain counts. The [wfq_bench sched]
    subcommand's engine; emits the BENCH_sched.json series. *)

val backends : (string * (module Wfq_sched.Sched.S)) list
(** The swept backends: [kp_opt12], [fps_pooled], [shard_rr2], [ring]
    — each the scheduler functor over that run-queue on real
    atomics. *)

val service :
  domains:int list -> requests:int -> fanout:int -> work:int -> runs:int -> Report.series list
(** Run the scenario — [requests] request fibers each spawning and
    awaiting [fanout] subfibers, [work] CPU-burn iterations per stage —
    [runs] times for every (backend, worker count in [domains]) pair
    (each field is the median over the runs) and return
    series keyed ["<field>:<backend>"] with domain count on the x axis:
    [throughput] (requests/s), [fiber_p50_ns], [fiber_p99_ns]
    (spawn-to-completion, the scheduler's histogram), [steals] (tasks
    stolen), [steal_attempts] (idle sweeps entered — the idle-backoff
    study's series). Each run verifies the fan-out answer and fiber
    conservation before reporting, so a wrong result fails loudly
    rather than producing a fast number. *)
