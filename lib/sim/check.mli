(** The Explore × Lincheck driver: model-check a queue implementation
    end to end — build the scenario, explore its schedules ({!Dpor} by
    default), and on every explored schedule check element conservation,
    linearizability ({!Wfq_lincheck}), and optionally a per-fiber step
    bound (wait-freedom certification). Failures arrive pre-shrunk. *)

type script =
  [ `Enq of int
  | `Try_enq of int
  | `Deq
  | `Enq_batch of int list
  | `Try_enq_batch of int list
  | `Deq_batch of int ]
  list
(** [`Try_enq] is the bounded-queue insert: it records [Done] when the
    queue accepted the element and [Rejected] when it reported full,
    and requires the queue's [try_enqueue] (and normally its
    [capacity]).

    The batch ops require the corresponding [enqueue_batch] /
    [try_enqueue_batch] / [dequeue_batch] capability. Each
    expands into one history sub-op per element — invoked together
    before the batch runs, answered together after — so each element
    linearizes inside its interval and the checker's per-thread
    program-order constraint certifies intra-batch FIFO.
    [`Try_enq_batch] records [Done] for the accepted prefix and
    [Rejected] for the remainder (bounded queues stop at their first
    full observation); a short [`Deq_batch] answers [Empty] for its
    unserved suffix. The expanded element count is what the checker's
    62-op limit bounds. *)

type 'q ops = {
  create : num_threads:int -> 'q;
  enqueue : 'q -> tid:int -> int -> unit;
  dequeue : 'q -> tid:int -> int option;
  contents : 'q -> int list;  (** quiescent snapshot, oldest first *)
  try_enqueue : ('q -> tid:int -> int -> bool) option;
      (** the bounded insert behind [`Try_enq] *)
  enqueue_batch : ('q -> tid:int -> int list -> unit) option;
  try_enqueue_batch : ('q -> tid:int -> int list -> int) option;
  dequeue_batch : ('q -> tid:int -> n:int -> int list) option;
  capacity : int option;
      (** [Some c] judges histories against the bounded-queue
          specification of capacity [c] *)
  audit : ('q -> (unit, string) result) option;
      (** structural audit, run at quiescence after every explored
          schedule (outside the scheduler, yields ignored) *)
}
(** The queue under test and its optional capabilities. Registry
    backends come from {!of_spec}; a hand-written record is for
    single-algorithm unit tests and deliberately broken mutants. *)

val of_spec : string -> int Wfq_core.Queue_intf.instance ops
(** The simulator-plane queue a registry spec names
    ([Wfq_core.Backends.find ~sim:true], so seeded [fault=…] keys are
    accepted), instantiated over {!Sim_atomic} with every capability:
    bounded insert, batches, the entry's capacity and its
    [check_quiescent_invariants] audit.

    @raise Invalid_argument for a spec the registry rejects or a backend
    that is not [sim_safe]. *)

val of_instance :
  ?capacity:int ->
  (num_threads:int -> int Wfq_core.Queue_intf.instance) ->
  int Wfq_core.Queue_intf.instance ops
(** {!of_spec}'s wrapper, for simulator-plane front-ends that are not
    registry entries (a [Wfq_shard] over [Sim_atomic]). *)

type mode =
  | Dpor  (** one schedule per Mazurkiewicz trace; exhaustive coverage *)
  | Exhaustive  (** every interleaving — tiny scenarios only *)
  | Preemption_bounded of int
  | Pct of { count : int; change_points : int }
  | Fuzz of { seed0 : int; count : int }

type failure = {
  message : string;
  forced : int list;  (** the failing schedule, replayable as-is *)
  shrunk : Shrink.t option;
  history : Wfq_lincheck.History.completed list;
      (** the history recorded when the minimal (shrunk, else raw)
          schedule is replayed on a fresh scenario, [init] included *)
  verdict : Wfq_lincheck.Checker.verdict;
      (** the linearizability checker's verdict on [history] *)
}

type report = {
  schedules : int;
  exhausted : bool;
  max_fiber_steps : int;
      (** the largest per-fiber step count seen across all explored
          schedules — the empirical wait-freedom bound for the scenario *)
  failure : failure option;
}

val make_scenario :
  queue:'q ops ->
  scripts:script list ->
  init:int list ->
  ?step_bound:int ->
  max_fiber_steps:int ref ->
  unit ->
  (unit -> unit) array * (Scheduler.result -> (unit, string) result)
(** The underlying scenario builder ([make] in {!Explore}/{!Dpor}
    terms), exposed for tests that drive an explorer directly. One fiber
    per script (fiber id = tid); [init] values are pre-enqueued outside
    the scheduled run and recorded as history of a synthetic thread. *)

val run :
  ?mode:mode ->
  ?max_schedules:int ->
  ?step_limit:int ->
  ?step_bound:int ->
  ?shrink:bool ->
  ?init:int list ->
  queue:'q ops ->
  scripts:script list ->
  unit ->
  report
(** Explore and check the scenario. [step_bound] turns on the
    wait-freedom certifier: any schedule in which some fiber exceeds the
    bound is a failure. The queue's [audit] runs per schedule after the
    built-in checks. [shrink] (default true) delta-debugs any failing
    schedule, and the failure carries the history replayed under the
    minimal schedule. Total operation count (scripts + init) is capped
    at 62 by the linearizability checker. Conservation always ignores
    rejected enqueues.

    Under [Dpor], [max_schedules] bounds total executions (complete +
    pruned); a [step_limit] hit is reported as a livelock/starvation
    failure. *)

val pp_failure : Format.formatter -> failure -> unit
(** The shrunk schedule when available, otherwise the raw message;
    then the replayed history and the checker's verdict. *)

type certificate = {
  observed_bound : int;
      (** the scenario's empirical per-fiber step bound: the largest
          per-fiber step count over every explored schedule *)
  schedules : int;
}

val certify :
  ?mode:mode ->
  ?max_schedules:int ->
  ?step_limit:int ->
  ?init:int list ->
  bound:int ->
  queue:'q ops ->
  scripts:script list ->
  unit ->
  (certificate, string) result
(** The per-fiber step-bound wait-freedom certifier, as a first-class
    entry point (extracted from the [test_kp_variants] bound-64
    machinery so backends and benches can certify too — the crossover
    table of [wfq_bench polylog] is built from these certificates).

    Runs {!run} with [step_bound:bound] and demands a {e complete}
    verdict: [Ok] means the exploration exhausted its schedule space
    (under [mode]'s coverage — DPOR exhausts Mazurkiewicz traces;
    [Preemption_bounded] certifies only up to its preemption budget)
    with no linearizability/conservation failure and no fiber
    exceeding [bound] steps; the certificate carries the largest count
    actually observed. [Error] reports the shrunk counterexample, or
    incompleteness if the exploration was cut off by [max_schedules]. *)
