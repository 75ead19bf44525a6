(** Instrumented benchmark runs for the observability layer: populate a
    {!Wfq_obsv.Metrics} registry from real multi-domain workloads
    ([wfq_bench stats]), and guard the instrumentation's overhead
    against a fixed budget. *)

type run_line = {
  queue : string;
  threads : int;
  iters : int;
  seconds : float;
  ops : int;
}

val collect :
  threads:int -> iters:int -> unit -> Wfq_obsv.Metrics.t * run_line list
(** Run instrumented pairs workloads — opt WF (1+2) with the [?obsv]
    handle, WF fps pooled, WF fps with a zero fast budget (so the
    slow-path metrics are non-trivial), the 4-shard round-robin
    front-end, and a registry churn loop — each feeding per-op
    enqueue/dequeue latency histograms ([<queue>.enqueue_ns] /
    [.dequeue_ns], bechamel monotonic-clock ns). Returns the populated
    registry and one timing line per queue. *)

type overhead = {
  oh_queue : string;
  disabled_ns_per_op : float;  (** best (minimum) over runs *)
  enabled_ns_per_op : float;  (** best (minimum) over runs *)
  ratio : float;
      (** median of per-pair enabled/disabled ratios; must stay <=
          budget. Not [enabled_ns_per_op /. disabled_ns_per_op]: the
          paired statistic is robust to noise the per-side minima are
          not. *)
}

val overhead_budget : float
(** 1.02: instrumentation may cost at most 2% throughput on the pairs
    workload (the [stats] row's guard, {!Suite.stats}). *)

val measure_overhead : iters:int -> runs:int -> unit -> overhead list
(** Disabled-vs-enabled chunks for opt WF (1+2) and WF fps: the
    identical [iters]-pair loop over a plain queue and over one built
    with [?obsv] (writing into an unread registry), both persistently
    warmed, timed single-domain in-process over [runs] back-to-back
    chunk pairs with alternating in-pair order; the guarded ratio is
    the median of per-pair ratios. The instrumentation is thread-local
    (single-writer cells, no shared traffic), so its cost is a
    sequential quantity — measuring it without domain spawns or the
    scheduler is what makes a 2% budget checkable on a noisy host.
    Latency sampling (clock reads) is not part of the enabled side —
    it is a per-call opt-in of {!collect}, not of instrumented
    queues. *)
