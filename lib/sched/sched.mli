(** Effect-based fiber scheduler over this library's wait-free queues.

    [N] workers — OCaml domains in production ({!S.run}), or arbitrary
    callers of the deterministic core ({!S.step}) under the simulator —
    each own two queues of fiber slices:

    - a {e private FIFO}, a plain growable array ring that only the
      owning worker touches. {!S.spawn}, {!S.spawn_many}, {!S.yield}
      and completion wakeups push onto it;
    - a {e shared} MPMC run-queue, backed by any {!RUN_QUEUE} (any
      registered backend through {!Rq_of}, or the sharded front-end
      through {!Rq_shard}). It holds {!S.submit}ted fibers and the tasks
      the owner publishes.

    A worker serves its shared queue first while it is non-empty, then
    its private FIFO; with both empty it steals with one
    {!Wfq_shard.Steal_order} lap over the other workers' shared queues
    — the same sweep contract as the shard dequeue. At one worker the
    order is exactly FIFO.

    {b Hunger protocol.} A thief whose lap finds nothing raises a
    per-victim [hungry] flag (reading it first, writing only if it is
    clear). At its next step a victim holding two or more private
    tasks clears the flag and publishes the oldest half of its FIFO to
    its shared queue with one [try_enqueue_batch]; a refused suffix
    stays at the head of the FIFO. A full bounded run-queue therefore
    never raises out of the scheduler: publication keeps what does not
    fit, and {!S.submit} spills what does not fit to the private FIFO.

    Fibers are effect-handler coroutines: {!S.spawn} starts a new fiber
    and returns a promise, {!S.yield} requeues the current fiber behind
    its worker's private FIFO, {!S.await} suspends until a promise
    completes (re-raising if the awaited fiber failed). Handlers are
    {e shallow}: each worker builds its handler once, closing over its
    own [tid], and every slice runs under the handler of the worker
    executing it, so a fiber resumed by a different worker (steal,
    wakeup) performs its queue operations under the resuming domain's
    [tid] — the Kogan-Petrank thread-identity discipline — and effects
    the scheduler does not own (e.g. the simulator's yield-per-access)
    are forwarded to outer handlers, keeping the core model-checkable.

    Progress: a scheduler step is a bounded number of wait-free
    run-queue operations (publication is one batch insert) plus plain
    private-FIFO operations (publication copies half the FIFO), the
    fiber-count FAAs, hunger-flag reads and writes and single-writer
    counter stores, so every step is wait-free when the backend is.
    The tradeoff of private queues: a fiber queued behind a slice that
    never performs a scheduler effect waits for that slice to end,
    because only its owner can publish it — with one shared queue per
    worker it could have been stolen. Only the {e idle} worker spins —
    on the shared clamped {!Wfq_primitives.Backoff} schedule, reset the
    moment a task is found — and only while no task is runnable for
    it.

    See docs/SCHEDULER.md for the full protocol walkthrough. *)

module Steal_order = Wfq_shard.Steal_order

module type RUN_QUEUE = sig
  include Wfq_core.Queue_intf.RUN_QUEUE

  val try_enqueue_batch : 'a t -> tid:int -> 'a list -> int
  (** Bounded-aware batch insert: the length of the accepted prefix
      ({!Wfq_core.Queue_intf.QUEUE_BACKEND.try_enqueue_batch}). The
      scheduler inserts only through it. *)
end
(** What a shared run-queue must provide: the
    {!Wfq_core.Queue_intf.RUN_QUEUE} operations plus the bounded batch
    insert. *)

type metrics
(** Instrumentation handle ({!Wfq_obsv}): the run-queue depth histogram
    (sampled at every push from the push/take counters) and the
    per-fiber spawn-to-completion latency histogram (recorded only when
    the scheduler also has a [?clock]). Writes are per-tid
    single-writer plain cells — no extra shared traffic, DPOR traces
    identical with or without. *)

val metrics : Wfq_obsv.Metrics.t -> prefix:string -> slots:int -> metrics
(** Create the handle and register its histograms under
    [prefix ^ ".runq_depth"] / [".fiber_latency_ns"]. [slots] must be
    the scheduler's [num_workers]. *)

(** Output signature of {!Make}. *)
module type S = sig
  type t

  type 'a promise
  (** Completion cell of one fiber: carries its value, or the exception
      that escaped its body. *)

  val name : string
  (** ["sched(<run-queue name>)"]. *)

  val create :
    ?obsv:metrics -> ?clock:(unit -> int) -> num_workers:int -> unit -> t
  (** [num_workers] fixes the worker (and run-queue) count; worker
      [tid]s are [0 .. num_workers - 1]. [clock] is a monotonic ns
      clock enabling fiber-latency recording (e.g. bechamel's
      [Monotonic_clock.now]); without it latency is not sampled.
      Raises [Invalid_argument] for [num_workers <= 0]. *)

  val num_workers : t -> int

  (** {2 Fiber context}

      These perform effects and must run inside a fiber (a computation
      started by {!run}, {!submit} or {!spawn}); outside one they raise
      [Effect.Unhandled]. *)

  val spawn : (unit -> 'a) -> 'a promise
  (** Start a new fiber on the current worker's private FIFO. *)

  val spawn_many : (unit -> 'a) list -> 'a promise list
  (** Fan-out: start one fiber per body, pushed in body order onto the
      current worker's private FIFO (plain array stores; the tasks
      reach the shared queue only if the hunger protocol publishes
      them). The fan-out is accounted with one FAA. Promises are
      returned in body order. [spawn_many []] is [[]]. *)

  val yield : unit -> unit
  (** Requeue the current fiber behind its worker's private FIFO. *)

  val await : 'a promise -> 'a
  (** The promise's value, suspending until it completes. Re-raises the
      awaited fiber's exception if it failed. *)

  (** {2 External operations} *)

  val submit : t -> tid:int -> (unit -> 'a) -> 'a promise
  (** Enqueue a fresh fiber on worker [tid]'s shared run-queue from
      outside any fiber (setup code, tests), where any worker can
      steal it. If a bounded run-queue refuses it, it goes to [tid]'s
      private FIFO instead. The caller must own [tid]'s slot for the
      duration of the call (quiescent setup, or the worker itself). *)

  val submit_batch : t -> tid:int -> (unit -> 'a) list -> 'a promise list
  (** {!submit}'s fan-out form: one [try_enqueue_batch] for the whole
      list; the refused suffix goes to the private FIFO, in order. Same
      [tid]-ownership requirement. *)

  val result : 'a promise -> ('a, exn) result option
  (** Non-blocking completion probe; [None] while the fiber runs. *)

  val run : t -> (unit -> 'a) -> 'a
  (** Execute [main] to completion: the calling domain becomes worker 0
      and [num_workers - 1] domains are spawned for the rest. Returns
      when {e every} fiber has completed, with [main]'s value (or
      re-raises its escaped exception). Do not call concurrently with
      itself or with external [submit]s. *)

  (** {2 Deterministic core}

      The worker loop decomposed for tests and the simulator: no
      domains, no spinning — the caller owns the schedule. At most one
      caller per [tid] at a time. *)

  val step : t -> tid:int -> bool
  (** Answer the hunger flag (publish), then take one task (own shared
      queue, own private FIFO, then one steal lap) and run it to its
      next suspension point. [false] iff no task was found; a failed
      lap raises the other workers' hunger flags. *)

  val drain : t -> tid:int -> int
  (** [step] until idle; the number of slices executed. [drain ~tid]
      cannot reach the other workers' private FIFOs: their tasks move
      only when their owner steps. Completeness therefore needs every
      worker drained until none makes progress: then
      {!pending_fibers}[ > 0] means some fiber is suspended on a
      promise nothing will complete — a user-level deadlock. At one
      worker a single [drain] suffices. *)

  (** {2 Probes} (racy snapshots; exact at quiescence) *)

  val pending_fibers : t -> int
  (** Fibers spawned and not yet completed (running, queued, or
      suspended). *)

  val fibers_spawned : t -> int

  val fibers_completed : t -> int

  val steal_attempts : t -> int
  (** Steal laps entered (own queues found empty). *)

  val steals_won : t -> int
  (** Tasks obtained from another worker's shared queue. *)

  val run_queue_depth : t -> int -> int
  (** Approximate number of tasks queued on worker [i] — private FIFO
      plus shared queue — from the push/take counters. Raises
      [Invalid_argument] for an out-of-range index. *)

  val register_metrics : t -> Wfq_obsv.Metrics.t -> prefix:string -> unit
  (** Attach the always-on scheduler counters
      ([prefix ^ ".fibers_spawned"/".fibers_completed"/
      ".steal_attempts"/".steals_won"/".published"], a
      [".pending_fibers"] gauge) and, per worker [i],
      [prefix ^ ".rq<i>.pushes"/".takes"] (private and shared together)
      plus the shared queue's own uniform registration under
      [".rq<i>"] (at minimum its [".depth"] gauge). [".published"]
      counts tasks moved from a private FIFO to a shared queue by the
      hunger protocol. *)
end

module Make (A : Wfq_primitives.Atomic_intf.ATOMIC) (Q : RUN_QUEUE) : S
(** Build a scheduler over an atomic plane and a run-queue backend.
    Instantiating [Q] over the same [A] keeps the whole system on one
    plane — mandatory for simulator runs. *)

(** {2 Run-queue backends} *)

module Rq_shard (A : Wfq_primitives.Atomic_intf.ATOMIC) : RUN_QUEUE
(** A 2-shard round-robin {!Wfq_shard} front-end per run-queue:
    k-relaxed order within one worker's queue, strict per shard. *)

module Rq_of
    (B : Wfq_core.Queue_intf.BACKEND)
    (A : Wfq_primitives.Atomic_intf.ATOMIC) : RUN_QUEUE
(** Any registered backend as a run-queue, in the configuration its
    spec selected: [Make (A) (Rq_of ((val Wfq_core.Backends.find
    "ring?capacity=4096")) (A))] builds a scheduler on 4096-slot rings
    with no per-backend adapter. The wait-freedom inheritance above
    needs a wait-free entry: over a [baseline] entry ([lf], [mutex],
    ...) hand-off is only as lock-free or blocking as that queue. *)
