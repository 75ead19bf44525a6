(** The paper's two benchmarks (§4) as multi-domain workloads with
    built-in correctness validation — a run that violates element
    conservation (or observes an impossible empty dequeue) raises
    [Failure] rather than reporting a meaningless time. *)

type queue = {
  label : string;  (** series label in reports and failure messages *)
  make : num_threads:int -> int Wfq_core.Queue_intf.instance;
      (** a fresh, empty queue admitting tids [0 .. num_threads - 1];
          the workloads build one per run, sized [threads + 1] *)
}
(** A queue under test: how to build its {!Wfq_core.Queue_intf.instance}
    and what to call it. Registry backends come from {!spec}; the shard
    front-end and the universal construction build their instance by
    hand. *)

val spec : ?label:string -> string -> queue
(** A {!Wfq_core.Backends} spec as a queue under test ([spec ~label:"base
    WF" "kp-opt12?help=all&phase=scan"]). The label defaults to the
    entry's. The spec is resolved here, once; raises [Invalid_argument]
    if {!Wfq_core.Backends.find} rejects it. *)

val per_item :
  'a Wfq_core.Queue_intf.instance -> 'a Wfq_core.Queue_intf.instance
(** The same queue with its batch operations looped one element at a
    time over the single-element ones — the baseline native batches are
    measured against. *)

type counters = {
  mutable enqs : int;
  mutable deq_hits : int;
  mutable deq_empties : int;
}

type gc_stats = {
  minor_words : float;
      (** words allocated through the minor heap, summed over the worker
          domains' own [Gc.quick_stat] deltas (allocation counters are
          per-domain in OCaml 5) *)
  promoted_words : float;
      (** of those, words that survived into the major heap *)
  minor_collections : int;
      (** stop-the-world minor collections during the measured window
          (global events, deltaed once from the coordinating domain) *)
  major_collections : int;  (** major cycles completed in the window *)
}

type run_result = {
  seconds : float;  (** wall-clock completion time of all threads *)
  total_ops : int;
  per_thread : counters array;
  gc : gc_stats;  (** GC activity inside the measured window *)
}

val pairs :
  ?check:bool ->
  queue ->
  threads:int ->
  iters:int ->
  unit ->
  run_result
(** "enqueue-dequeue pairs": empty queue; each thread runs [iters] ×
    (enqueue; dequeue). Validation: no dequeue may observe empty (each
    thread's dequeue is preceded by its own enqueue) and the queue must
    end empty. *)

val pairs_relaxed :
  ?check:bool ->
  ?max_retries:int ->
  queue ->
  threads:int ->
  iters:int ->
  unit ->
  run_result
(** {!pairs} for relaxed-FIFO queues (the sharded front-end): a [None]
    dequeue is retried (counted in [deq_empties]) instead of failing the
    run, because a non-atomic shard sweep may observe empty while
    elements are in flight. Validation: every enqueue is eventually
    dequeued and the queue ends empty. On a strict queue this is
    operation-for-operation identical to {!pairs}. *)

val pairs_batch :
  ?check:bool ->
  ?max_retries:int ->
  queue ->
  threads:int ->
  iters:int ->
  batch:int ->
  unit ->
  run_result
(** Batch pairs (docs/BATCHING.md): each round batch-enqueues [batch]
    fresh values then batch-dequeues [batch]; [iters] counts elements
    per thread ([iters / batch] rounds), so the run moves the same
    element volume as {!pairs} at equal [iters]. A short batch dequeue
    is retried on the remainder (each shortfall counted once in
    [deq_empties]) — strict backends never return short here, the
    sharded front-end's non-atomic sweep may. Validation: enqueued =
    dequeued and the queue ends empty. *)

val p_enq :
  ?check:bool ->
  ?prefill:int ->
  ?seed:int ->
  queue ->
  threads:int ->
  iters:int ->
  unit ->
  run_result
(** "50% enqueues": queue prefilled with [prefill] (default 1000)
    elements; each thread flips a private fair coin per iteration.
    Validation: prefill + enqueues - successful dequeues = leftovers. *)

val repeat : runs:int -> (unit -> run_result) -> float list
(** Completion times of [runs] repetitions (the paper averages ten). *)
