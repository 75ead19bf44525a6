(** Per-operation latency distributions across domains — the
    measurement behind the real-time motivation of the paper's §1
    (deadline-bound systems care about tails, not means).

    Enqueue and dequeue are timed as {e separate} samples on the shared
    monotonic nanosecond clock ({!Clock}); the two operations have
    different helping structure, so one fused round-trip number would
    hide which side owns the tail.

    This is a {e closed-loop} measurement: each thread issues its next
    operation the instant the previous one returns, so the recorded
    numbers are service times under self-throttled load and cannot show
    queueing delay (coordinated omission). For p50/p99/p999 at an
    offered load, use {!Open_loop} (docs/LATENCY.md). *)

type dist = { p50 : float; p99 : float; p999 : float; max : float }
(** Microseconds, nearest-rank over the exact per-operation samples. *)

type summary = {
  enqueue : dist;
  dequeue : dist;
  samples : int;  (** per side: [threads * iters] enqueues, same dequeues *)
  minor_collections : int;
      (** stop-the-world minor collections inside the measured window —
          each is a shared latency spike, so a GC-dominated tail is
          distinguishable from a helping-dominated one *)
}

val measure : ?threads:int -> ?iters:int -> Workload.queue -> summary
(** Run the enqueue-dequeue pairs workload on [threads] domains,
    recording each enqueue's and each dequeue's monotonic-clock latency
    as separate samples. Raises [Invalid_argument] on non-positive
    parameters and [Failure] if the clock source ever regresses (it
    cannot on CLOCK_MONOTONIC — the guard pins the contract). *)
