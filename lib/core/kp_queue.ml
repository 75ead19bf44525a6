(** The Kogan-Petrank wait-free MPMC queue (PPoPP 2011) — the paper's
    contribution.

    Faithful port of the Java pseudocode in the paper's Figures 1, 2, 4
    and 6; comments of the form "L74" refer to the paper's line numbers.

    The queue extends Michael & Scott's lock-free queue with a phase-based
    helping scheme. Every thread owns a slot in the [state] array holding
    its current {e operation descriptor} (phase, pending flag, operation
    type, node). An operation (paper §3.1):

    + picks a phase strictly larger than every phase chosen before it
      (Lamport-bakery-style doorway),
    + publishes its descriptor, and
    + helps every pending operation whose phase is ≤ its own, its own
      included, before returning.

    Each operation type is split into three atomic steps so helpers apply
    it exactly once: (1) mutate the list — the linearization point, (2)
    flip [pending] to false in the owner's descriptor, (3) fix [tail]
    (enqueue) or [head] (dequeue). Step (1) is a CAS on [last.next]
    (enqueue, L74) or on the first node's [deq_tid] field (dequeue, L135).

    Both §3.3 optimizations are provided as construction-time policies:
    {!help_policy} [Help_one_cyclic] (help at most one other thread per
    operation, scanning [state] cyclically — preserves wait-freedom
    because a thread can bypass a given peer at most [num_threads]
    consecutive times) and {!phase_policy} [Phase_counter] (derive the
    phase from a shared counter bumped with a result-ignored CAS — the
    paper's footnote 3 — instead of scanning [state]).

    This module is the paper's public operations (L61-66, L98-108, plus
    the batch extension) and nothing else: the descriptors, pools,
    phase selection, helping and finishing steps live in
    {!Kp_internals}, the one copy of the slow path, which the
    fast-path/slow-path variant {!Kp_queue_fps} runs unchanged.

    Progress: wait-free with the [Phase_scan]/[Help_all] and
    [Phase_counter]/[Help_one_cyclic] combinations alike; population-
    oblivious in no case (the bound depends on [num_threads], §3.3). *)

type help_policy = Kp_internals.help_policy =
  | Help_all
  | Help_one_cyclic
  | Help_chunk of int

type phase_policy = Kp_internals.phase_policy = Phase_scan | Phase_counter

type tuning = Kp_internals.tuning = {
  gc_friendly : bool;
  validate_before_cas : bool;
}

let default_tuning = Kp_internals.default_tuning

type metrics = Kp_internals.metrics

let metrics = Kp_internals.metrics

module Make (A : Wfq_primitives.Atomic_intf.ATOMIC) = struct
  module C = Kp_internals.Make (A)

  type 'a t = ('a, unit) C.t

  let name = "kp-wait-free"

  let create_with ?tuning ?pool ?pool_segment ?pool_quarantine ?obsv ~help
      ~phase ~num_threads () : 'a t =
    C.create ~who:"Kp_queue" ~ext:Fun.id ?tuning ?pool ?pool_segment
      ?pool_quarantine ?obsv ~help ~phase ~num_threads ()

  let create ~num_threads () =
    create_with ~help:Help_all ~phase:Phase_scan ~num_threads ()

  (* L61-66 *)
  let enqueue (t : 'a t) ~tid value =
    C.op_enter t ~tid;
    let phase = C.next_phase t ~tid in
    let node = C.alloc_node t ~self:tid ~enq_tid:tid value in
    C.run_enq t ~tid ~phase node ~last:None;
    C.gc_reset t ~tid ~phase ~enqueue:true;
    C.op_exit t ~tid

  (* L98-108 *)
  let dequeue (t : 'a t) ~tid =
    C.op_enter t ~tid;
    let phase = C.next_phase t ~tid in
    C.run_deq t ~tid ~phase ~want:0;
    let result = C.take_value t ~tid ~phase in
    C.op_exit t ~tid;
    result

  (* ------------------------------------------------------------------ *)
  (* Batch operations                                                   *)
  (* ------------------------------------------------------------------ *)

  let record_batch (t : 'a t) ~tid k =
    match t.obsv with
    | Some m -> Wfq_obsv.Histogram.record m.m_batch_size ~slot:tid k
    | None -> ()

  (* One phase pick, one descriptor publication and one L74 list CAS
     cover the whole batch: the chain is pre-linked before publication
     (plain writes on nodes nobody else can reach), the descriptor
     names both ends, and helpers run the unmodified [help_enq] — the
     CAS that appends the chain's first node linearizes all k elements
     in order, and [help_finish_enq] jumps [tail] over the chain. Cost:
     3 CASes + 1 phase pick per batch, vs per element. *)
  let enqueue_batch t ~tid values =
    match values with
    | [] -> ()
    | [ v ] -> enqueue t ~tid v
    | v0 :: rest ->
        C.op_enter t ~tid;
        record_batch t ~tid (List.length values);
        let phase = C.next_phase t ~tid in
        let first = C.alloc_node t ~self:tid ~enq_tid:tid v0 in
        let last = C.link_chain t ~self:tid ~enq_tid:tid first rest in
        C.run_enq t ~tid ~phase first ~last:(Some last);
        C.gc_reset t ~tid ~phase ~enqueue:true;
        C.op_exit t ~tid

  (* One phase pick and one descriptor publication cover up to [n]
     dequeues: the published [want = n] descriptor is driven by
     [help_batch_deq] (owner and helpers alike), accumulating values in
     the descriptor itself so a helper can complete the remaining
     suffix after the owner stalls at any point. Returns the collected
     prefix in FIFO order; shorter than [n] iff the queue was observed
     empty at the final element's linearization point. *)
  let dequeue_batch t ~tid ~n =
    if n < 0 then invalid_arg "Kp_queue.dequeue_batch: n";
    if n = 0 then []
    else begin
      C.op_enter t ~tid;
      record_batch t ~tid n;
      let phase = C.next_phase t ~tid in
      C.run_deq t ~tid ~phase ~want:n;
      let taken = C.take_batch t ~tid ~phase in
      C.op_exit t ~tid;
      taken
    end

  (* ------------------------------------------------------------------ *)
  (* Observers (quiescent use) and white-box probes                     *)
  (* ------------------------------------------------------------------ *)

  let to_list = C.to_list
  let length = C.length
  let is_empty = C.is_empty
  let check_quiescent_invariants = C.check_quiescent_invariants
  let phase_of = C.phase_of
  let pending_of = C.pending_of
  let pool_stats = C.pool_stats

  (* True while the thread's descriptor still references a list node;
     with [gc_friendly] tuning it is false between operations. *)
  let holds_node_reference (t : 'a t) ~tid = (A.get t.state.(tid)).node <> None

  (* The uniform RUN_QUEUE registration (Queue_intf.RUN_QUEUE): the
     depth gauge every backend exposes, plus whatever always-on
     diagnostics this queue owns — here the pool counters when pooled.
     The gauge polls [length] (a traversal), which only runs at
     snapshot time, never on the hot path. *)
  let register_metrics t registry ~prefix =
    Wfq_obsv.Metrics.gauge registry ~name:(prefix ^ ".depth") (fun () ->
        length t);
    C.register_pool_metrics t registry ~prefix
end
