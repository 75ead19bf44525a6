(** Open-loop load engine with coordinated-omission-safe latency
    recording: producers follow a seeded {!Arrivals} schedule and every
    latency is measured from the event's {e intended} send time on the
    monotonic clock ({!Clock}), so a stalled or saturated queue shows
    the queueing delay it actually caused instead of throttling the
    load that would have revealed it. Methodology in docs/LATENCY.md;
    the sweep driver is [wfq_bench latency-openloop]. *)

type dist = {
  p50 : float;
  p99 : float;
  p999 : float;
  max : float;
  samples : int;
}
(** Nearest-rank percentiles over the exact samples, nanoseconds. *)

type stall = { victim : int; after : int; duration_ns : int }
(** Injected consumer outage: consumer [victim] goes dark for
    [duration_ns] after its [after]-th dequeue — the sim's
    stall-injection idea applied at the harness level. *)

type config = {
  producers : int;
  consumers : int;
  rate : float;  (** offered load, events/s across all producers *)
  events : int;
  pattern : Arrivals.pattern;
  skew : float;
      (** skewed shard-affinity knob: Zipf-ish producer weights,
          {!Arrivals.split}; [0.] is uniform *)
  seed : int;
  stall : stall option;
}

val default_config : config
(** 1 producer, 1 consumer, Poisson 10k events at 10k events/s, no
    skew, no stall. *)

type result = {
  enq : dist;  (** enqueue completion - intended send time *)
  sojourn : dist;
      (** dequeue completion - intended send time: the end-to-end
          latency an SLO is stated over *)
  duration_s : float;  (** first intended send to last dequeue *)
  offered_rate : float;
  achieved_rate : float;
  enq_hist : Wfq_obsv.Histogram.t;
      (** the same samples pow2-bucketed, one slot per producer — the
          recording the metrics registry snapshots *)
  sojourn_hist : Wfq_obsv.Histogram.t;  (** one slot per consumer *)
}

val default_backends : unit -> Wfq_core.Backends.t list
(** The backends an open-loop sweep covers by default: every registered
    entry outside the ["baseline"] family (the wait-free queues). *)

val run : ?metrics:Wfq_obsv.Metrics.t * string -> config -> Workload.queue -> result
(** Run one open-loop point on real domains ([producers + consumers]
    spawned, plus the calling domain which validates the drain).
    Producers apply backpressure on bounded backends ([try_enq] retry
    loop): a full queue delays the producer past the intended send
    time, and the delay lands in the enqueue-latency samples.
    Conservation is checked (every event dequeued exactly once, queue
    empty after); a violation raises [Failure].
    [?metrics:(registry, prefix)] registers the two histograms as
    [prefix ^ ".enq_latency_ns"] / [prefix ^ ".sojourn_ns"]. Raises
    [Invalid_argument] on non-positive counts/rate or an out-of-range
    stall victim. *)

type sim_result = {
  open_loop : dist;  (** completion - intended send time *)
  closed_loop : dist;
      (** completion - service start: what a timestamp-around-the-call
          harness records for the same execution *)
}

val simulate :
  ?service_ns:int ->
  ?stall:stall ->
  pattern:Arrivals.pattern ->
  seed:int ->
  rate:float ->
  events:int ->
  Workload.queue ->
  sim_result
(** Deterministic single-server virtual-time run (Lindley recurrence:
    service starts at max(intended, previous completion), takes
    [service_ns], plus the injected [stall] after its [after]-th
    completion; [stall.victim] is ignored — there is one server). The
    queue impl is really driven (every event enqueued before its
    service, dequeued at it) and FIFO delivery is checked. The two
    distributions come from the same execution, so their gap under a
    stall is exactly the coordinated omission a closed-loop harness
    commits — the regression test's pin. *)

val knee : ?mult:float -> (float * float) list -> float option
(** [knee ~mult curve] with [curve = (offered_load, p99) list]: the
    first offered load (ascending) whose p99 exceeds [mult] (default
    4.) times the lowest load's p99 — the saturation knee. [None] if
    the tail never crosses; raises [Invalid_argument] on an empty
    curve. *)
