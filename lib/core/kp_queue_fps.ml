(** Fast-path/slow-path variant of the Kogan-Petrank queue: lock-free
    speed when uncontended, the paper's wait-free helping as a fallback.

    The PPoPP 2011 algorithm pays the helping tax on {e every} operation:
    publish a descriptor, pick a phase, help peers — even with no
    contention at all. This module applies the fast-path/slow-path
    methodology (Kogan & Petrank, PPoPP 2012; used industrially by wCQ,
    arXiv:2201.02179): run a plain Michael-Scott lock-free operation for
    at most [max_failures] failed attempts, and only on persistent
    interference fall back to the paper's phase-based slow path.

    The slow path is not a copy: it is {!Kp_internals}, the same code
    {!Kp_queue} runs (descriptors, pools, phase selection, helping,
    finishing steps, audit). This module holds only what is its own —
    the bounded Michael-Scott rounds, the fast batch paths, the
    [slow_pending] counter with [maybe_help], its fault hooks and its
    path counters.

    Wait-freedom is preserved by two obligations:

    + the fast path is {e bounded}: after [max_failures] failed rounds
      the operation switches to the slow path, whose helping scheme
      completes it in a bounded number of steps (paper §3.2);
    + fast-path operations {e help}: before each operation a thread reads
      the [slow_pending] counter (one atomic load — the only fast-path
      overhead) and, when it is non-zero, runs one cyclic helping round
      to completion. A pending slow-path operation is therefore helped
      after at most [num_threads] operations of any other thread, whether
      that thread is on the fast or the slow path, so fast-path traffic
      cannot starve the slow path.

    Compatibility between the paths (both run on the same nodes):

    - {b enqueue}: both paths append by CAS on [last.next]. Fast-path
      nodes carry [enq_tid = -1], telling [help_finish_enq] there is no
      descriptor to complete — only [tail] to advance. Slow-path nodes
      carry the real tid, exactly as in {!Kp_queue}.
    - {b dequeue}: both paths linearize on the same CAS of the sentinel's
      [deq_tid] field. A fast-path dequeue claims with
      [num_threads + tid] (disjoint from slow-path tids), so
      [help_finish_deq] knows whether there is a descriptor to complete
      before swinging [head]. A fast-path dequeue that swung [head]
      directly (pure Michael-Scott) would race a slow-path dequeue that
      already locked the sentinel and consume the same element twice —
      hence the shared claim protocol, at the cost of one extra CAS per
      dequeue relative to raw MS.

    Cost of an uncontended operation (see test/test_op_profile.ml):
    enqueue = 2 CAS (append + tail), dequeue = 2 CAS (claim + head), vs
    3 and 4 CAS plus descriptor traffic for base {!Kp_queue}. *)

type help_policy = Kp_queue.help_policy =
  | Help_all
  | Help_one_cyclic
  | Help_chunk of int

type phase_policy = Kp_queue.phase_policy = Phase_scan | Phase_counter

type tuning = Kp_queue.tuning = {
  gc_friendly : bool;
  validate_before_cas : bool;
}

let default_tuning = Kp_queue.default_tuning

let default_max_failures = 64

(* Instrumentation handle (Wfq_obsv), same discipline as
   {!Kp_queue.metrics}: per-tid single-writer plain cells, zero extra
   shared-cell traffic, [None] compiles to the uninstrumented arm. The
   always-on fast/slow counters live in ['a t] directly (they predate
   the obsv layer and every probe reads them); this record carries the
   finer-grained path diagnostics. *)
type metrics = {
  m_fast_rounds : Wfq_obsv.Counter.t;
      (* fast-path CAS rounds consumed by *contended* attempts, per
         tid: ops that needed more than one round, plus rounds burned
         before a slow fallback. First-try successes are one round each
         and already counted by [fast_hits], so the uncontended path
         records nothing — total rounds = fast_hits + fast_rounds. *)
  m_claim_handoff : Wfq_obsv.Counter.t;
      (* fast dequeues that lost the sentinel claim and handed off by
         finishing the winner's operation (help_finish_deq) instead *)
  m_batch_size : Wfq_obsv.Histogram.t;
      (* elements per batch operation, recorded once per batch at entry *)
  m_batch_cas : Wfq_obsv.Counter.t;
      (* CASes issued by the owner of a fast-path batch operation
         (link/tail/claim/head, successful or not). Divided by the
         [batch_size] mass this yields the amortized CAS-per-element
         figure (docs/BATCHING.md); slow-path batches surface through
         [slow_entries] as usual. *)
}

let metrics registry ~prefix ~slots =
  let open Wfq_obsv in
  {
    m_fast_rounds =
      Metrics.counter registry ~name:(prefix ^ ".fast_rounds") ~slots;
    m_claim_handoff =
      Metrics.counter registry ~name:(prefix ^ ".claim_handoffs") ~slots;
    m_batch_size =
      Metrics.histogram registry ~name:(prefix ^ ".batch_size") ~slots;
    m_batch_cas =
      Metrics.counter registry ~name:(prefix ^ ".batch_cas") ~slots;
  }

(* Test-only seeded bugs (model-checker calibration): each reinstates a
   known-fatal deviation from the protocol so the test suite can prove
   the checker finds it. Never set in production code. *)
type fault =
  | Stale_helper_caller_phase
      (* help_slot passes the caller's bound down instead of the
         descriptor's own phase — the livelock of docs/FASTPATH.md,
         un-fixed *)
  | Fast_deq_no_claim
      (* fast-path dequeue swings head MS-style without claiming the
         sentinel's deq_tid — races slow dequeues into duplication *)
  | Untagged_pool_claim
      (* pooled-node recycling without the epoch tag: reset restores the
         plain -1 claim word instead of bumping the incarnation, so a
         stalled dequeuer's claim CAS can ABA a recycled node (claim it
         on the strength of a reference captured in its previous life).
         Only meaningful with ~pool:true. *)
  | Batch_partial_publish
      (* fast-path batch enqueue severs the chain after its first node
         before the link CAS, silently dropping the suffix while
         reporting the whole batch enqueued — a conservation violation
         the batch DPOR litmuses must find and shrink. Only fires on
         fast-path batches of >= 2 elements. *)

module Make (A : Wfq_primitives.Atomic_intf.ATOMIC) = struct
  module C = Kp_internals.Make (A)
  open C

  (* What the fast path adds to the shared queue record (its [ext]).
     [slow_pending] is a contended cell, one cache line, like [head]
     and [tail]. *)
  type ext = {
    (* Number of threads currently executing a slow-path operation.
       Fast-path operations read it once per operation and help only
       when it is non-zero, keeping the uncontended hot path free of
       helping traffic. *)
    slow_pending : int A.t;
    max_failures : int;
    fault : fault option; (* test-only seeded bug, None in production *)
    (* Single-writer per-tid statistics (exact at quiescence); always on
       — the probes below read them — and padded, so adjacent tids'
       cells never false-share. *)
    fast_hits : Wfq_obsv.Counter.t;
    slow_entries : Wfq_obsv.Counter.t;
    paths : metrics option;
  }

  type 'a t = ('a, ext) C.t

  let name = "kp-fps"

  (* The seeded faults that live in the shared slow path become its
     [untagged] / [stale_helper] switches; the other two fire below. *)
  let create_with ?tuning ?(max_failures = default_max_failures) ?fault
      ?pool ?pool_segment ?pool_quarantine ?obsv ~help ~phase ~num_threads
      () : 'a t =
    if max_failures < 0 then
      invalid_arg "Kp_queue_fps.create: max_failures must be >= 0";
    C.create ~who:"Kp_queue_fps" ?tuning ?pool ?pool_segment
      ?pool_quarantine
      ~untagged:(fault = Some Untagged_pool_claim)
      ~stale_helper:(fault = Some Stale_helper_caller_phase)
      ~help ~phase ~num_threads
      ~ext:(fun () ->
        {
          slow_pending = A.make_contended 0;
          max_failures;
          fault;
          fast_hits = Wfq_obsv.Counter.create ~slots:num_threads ();
          slow_entries = Wfq_obsv.Counter.create ~slots:num_threads ();
          paths = obsv;
        })
      ()

  (* The default slow path uses the paper's fastest configuration (both
     §3.3 optimizations); it is entered rarely, so the difference mostly
     matters under heavy contention, where opt (1+2) wins anyway. *)
  let create ~num_threads () =
    create_with ~help:Help_one_cyclic ~phase:Phase_counter ~num_threads ()

  (* Optional-instrumentation writes, factored so the operation bodies
     stay readable. All single-writer tid-local stores. *)
  let note_fast_rounds (t : 'a t) ~tid n =
    match t.ext.paths with
    | Some m -> Wfq_obsv.Counter.add m.m_fast_rounds ~slot:tid n
    | None -> ()

  let note_claim_handoff (t : 'a t) ~tid =
    match t.ext.paths with
    | Some m -> Wfq_obsv.Counter.incr m.m_claim_handoff ~slot:tid
    | None -> ()

  let note_batch_size (t : 'a t) ~tid k =
    match t.ext.paths with
    | Some m -> Wfq_obsv.Histogram.record m.m_batch_size ~slot:tid k
    | None -> ()

  let note_batch_cas (t : 'a t) ~tid n =
    match t.ext.paths with
    | Some m -> if n > 0 then Wfq_obsv.Counter.add m.m_batch_cas ~slot:tid n
    | None -> ()

  let fast_hit (t : 'a t) ~tid = Wfq_obsv.Counter.incr t.ext.fast_hits ~slot:tid

  (* [t.ext.fault = Some f] without the polymorphic compare, which is a
     C call on every fast dequeue. *)
  let fault_is (t : 'a t) f =
    match t.ext.fault with Some g -> g = f | None -> false

  (* The fast path's helping duty: one atomic load per operation; only
     when some thread is on the slow path, run one cyclic helping round
     (to completion — the shared helpers return only once the helped
     operation is no longer pending). The cursor advances every call, so
     a given pending operation is reached after at most [num_threads]
     operations of this thread: slow-path progress is bounded even if
     every other thread stays on the fast path forever. Helping at bound
     [max_int] is safe because [help_slot] helps at the descriptor's
     own phase. *)
  let maybe_help (t : 'a t) ~tid =
    if A.get t.ext.slow_pending > 0 then begin
      let i = tid * cursor_stride in
      let c = t.help_cursor.(i) in
      t.help_cursor.(i) <- (c + 1) mod t.num_threads;
      help_slot t ~self:tid c max_int
    end

  (* ------------------------------------------------------------------ *)
  (* Slow-path operations (entered after max_failures fast rounds)      *)
  (* ------------------------------------------------------------------ *)

  (* Raise the flag before publishing so that any fast-path operation
     starting after our descriptor is visible also sees the flag; then
     pick the phase. *)
  let enter_slow (t : 'a t) ~tid =
    Wfq_obsv.Counter.incr t.ext.slow_entries ~slot:tid;
    ignore (A.fetch_and_add t.ext.slow_pending 1);
    next_phase t ~tid

  let leave_slow (t : 'a t) = ignore (A.fetch_and_add t.ext.slow_pending (-1))

  (* [first] (a chain ending at [last] for a batch) was allocated and
     pre-linked by the fast path and never published (every fast append
     CAS on it failed), so the slow path adopts it — rewriting
     [enq_tid] from the fast-path marker to the real tid is safe
     pre-publication — instead of allocating again. Only the chain's
     first node gets the real tid: it is the only one that ever becomes
     [tail.next] before the jump ([help_finish_enq] moves [tail]
     straight to [last]); interior nodes keep the -1 marker
     harmlessly. *)
  let slow_enqueue t ~tid first ~last =
    let phase = enter_slow t ~tid in
    first.enq_tid <- tid;
    run_enq t ~tid ~phase first ~last;
    leave_slow t;
    gc_reset t ~tid ~phase ~enqueue:true

  let slow_dequeue t ~tid =
    let phase = enter_slow t ~tid in
    run_deq t ~tid ~phase ~want:0;
    leave_slow t;
    take_value t ~tid ~phase

  (* The remaining suffix of a batch whose fast rounds ran out: one
     descriptor with [want] drives [help_batch_deq] (owner and helpers
     alike). Returns the collected values in FIFO order, shorter than
     [want] iff the queue emptied. *)
  let slow_dequeue_batch t ~tid ~want =
    let phase = enter_slow t ~tid in
    run_deq t ~tid ~phase ~want;
    leave_slow t;
    take_batch t ~tid ~phase

  (* ------------------------------------------------------------------ *)
  (* Public operations: bounded Michael-Scott rounds, then fall back    *)
  (* ------------------------------------------------------------------ *)

  (* The fast-path retry loops live at functor level with every datum
     passed as an argument. Written as nested [let rec attempt] closures
     they allocate a closure environment per operation — measured at ~9
     words/pair on the pairs workload, which dominated the pooled fast
     path's residual allocation (see EXPERIMENTS.md, fps words/op
     decomposition). Functor-level recursion allocates nothing. *)
  let rec fast_enqueue t ~tid node failures =
    if failures >= t.ext.max_failures then begin
      note_fast_rounds t ~tid failures;
      slow_enqueue t ~tid node ~last:None
    end
    else
      let last = A.get t.tail in
      let next = A.get last.next in
      if last == A.get t.tail then
        match next with
        | None ->
            if A.compare_and_set last.next None (Some node) then begin
              (* Linearized; fix tail lazily, MS-style (failure means
                 someone helped us). *)
              ignore (A.compare_and_set t.tail last node);
              if failures > 0 then note_fast_rounds t ~tid (failures + 1);
              fast_hit t ~tid
            end
            else fast_enqueue t ~tid node (failures + 1)
        | Some _ ->
            (* Tail lagging behind a fast or slow append: finish it
               (either kind) and retry. *)
            help_finish_enq t ~self:tid;
            fast_enqueue t ~tid node (failures + 1)
      else fast_enqueue t ~tid node (failures + 1)

  let enqueue t ~tid value =
    op_enter t ~tid;
    maybe_help t ~tid;
    (* Fast-path nodes are marked [enq_tid = -1]: were a fast node to
       carry a real tid, a slow-path helper would wait forever for a
       descriptor that was never published (see help_finish_enq). *)
    let node = alloc_node t ~self:tid ~enq_tid:no_tid value in
    fast_enqueue t ~tid node 0;
    op_exit t ~tid

  let rec fast_dequeue t ~tid failures =
    if failures >= t.ext.max_failures then begin
      note_fast_rounds t ~tid failures;
      slow_dequeue t ~tid
    end
    else
        let first = A.get t.head in
        (* Claim word captured with the head reference (epoch ABA
           defense; see Kp_internals.try_claim). *)
        let claim0 = A.get first.deq_tid in
        let last = A.get t.tail in
        let next = A.get first.next in
        if first == A.get t.head then
          if first == last then
            match next with
            | None ->
                (* Observed empty — linearizable and free of descriptor
                   traffic on both paths. *)
                if failures > 0 then note_fast_rounds t ~tid (failures + 1);
                fast_hit t ~tid;
                None
            | Some _ ->
                help_finish_enq t ~self:tid;
                fast_dequeue t ~tid (failures + 1)
          else
            match next with
            | None -> fast_dequeue t ~tid (failures + 1) (* transient view *)
            | Some n ->
                if fault_is t Fast_deq_no_claim then
                  (* Seeded bug: pure MS dequeue, no deq_tid claim — can
                     deliver an element a slow dequeue already owns. *)
                  if A.compare_and_set t.head first n then begin
                    fast_hit t ~tid;
                    n.value
                  end
                  else fast_dequeue t ~tid (failures + 1)
                else if
                  (* Claim the sentinel with the fast-path marker; the
                     successful CAS is the linearization point — shared
                     with slow-path dequeues, which claim with their
                     tid. *)
                  try_claim first ~observed:claim0
                    ~tid:(t.num_threads + tid)
                then begin
                  let v = n.value in
                  if A.compare_and_set t.head first n then
                    release_node t ~self:tid first;
                  if failures > 0 then note_fast_rounds t ~tid (failures + 1);
                  fast_hit t ~tid;
                  v
                end
                else begin
                  (* Someone else's dequeue is mid-flight on this
                     sentinel; finish it and retry. *)
                  note_claim_handoff t ~tid;
                  help_finish_deq t ~self:tid;
                  fast_dequeue t ~tid (failures + 1)
                end
        else fast_dequeue t ~tid (failures + 1)

  let dequeue t ~tid =
    op_enter t ~tid;
    maybe_help t ~tid;
    let result = fast_dequeue t ~tid 0 in
    op_exit t ~tid;
    result

  (* ------------------------------------------------------------------ *)
  (* Batch operations                                                   *)
  (* ------------------------------------------------------------------ *)

  (* Bounded tail catch-up after a failed batch jump: helpers advanced
     [tail] into the chain one fast-node step at a time, so walk it the
     rest of the way (at most [k] steps — stops early once [tail.next]
     is [None] or someone else finishes the job). Pure helping; every
     CAS target is validated like MS tail fixing. *)
  let rec catch_up_tail t k =
    if k > 0 then begin
      let l = A.get t.tail in
      match A.get l.next with
      | None -> ()
      | Some nx ->
          ignore (A.compare_and_set t.tail l nx);
          catch_up_tail t (k - 1)
    end

  (* Fast-path batch enqueue: pre-link the chain (plain stores on nodes
     nobody can reach), then a single MS append CAS linearizes all k
     elements and one tail CAS (jump to the chain's last node) fixes
     the hint — 2 CASes per uncontended batch vs 2k for per-item
     enqueues. On budget exhaustion the slow path adopts the whole
     chain under one descriptor. *)
  let enqueue_batch t ~tid values =
    match values with
    | [] -> ()
    | [ v ] -> enqueue t ~tid v
    | v0 :: rest ->
        op_enter t ~tid;
        let k = List.length values in
        note_batch_size t ~tid k;
        maybe_help t ~tid;
        let chain_first = alloc_node t ~self:tid ~enq_tid:no_tid v0 in
        let chain_last =
          link_chain t ~self:tid ~enq_tid:no_tid chain_first rest
        in
        (* Seeded Batch_partial_publish: sever the chain after its
           first node — the link CAS below then publishes one element
           while the caller believes all [k] went in. *)
        if fault_is t Batch_partial_publish then
          A.set chain_first.next None;
        let rec attempt failures cas =
          if failures >= t.ext.max_failures then begin
            note_fast_rounds t ~tid failures;
            note_batch_cas t ~tid cas;
            slow_enqueue t ~tid chain_first ~last:(Some chain_last)
          end
          else
            let last = A.get t.tail in
            let next = A.get last.next in
            if last == A.get t.tail then
              match next with
              | None ->
                  if A.compare_and_set last.next None (Some chain_first)
                  then begin
                    (* Linearized (all k elements at once). Jump [tail]
                       over the chain; on failure helpers advanced it
                       one node at a time — walk it the rest of the
                       way so the next operation never inherits a
                       multi-node lag. *)
                    if not (A.compare_and_set t.tail last chain_last) then
                      catch_up_tail t k;
                    if failures > 0 then note_fast_rounds t ~tid (failures + 1);
                    note_batch_cas t ~tid (cas + 2);
                    fast_hit t ~tid
                  end
                  else attempt (failures + 1) (cas + 1)
              | Some _ ->
                  help_finish_enq t ~self:tid;
                  attempt (failures + 1) cas
            else attempt (failures + 1) cas
        in
        attempt 0 0;
        op_exit t ~tid

  (* Fast-path batch dequeue: claim the sentinel once, then jump [head]
     over a whole prefix with a single CAS (docs/BATCHING.md). The
     prefix grab is safe because every delivery — fast or slow,
     per-item or batch — requires claiming the node currently at
     [t.head]: while our claim holds and [head] still points at the
     claimed sentinel, nobody can deliver anything, and next pointers
     of live in-queue nodes are immutable (set once, None -> Some), so
     the walked chain is exactly what the jump publishes. A successful
     jump linearizes every collected element at the jump CAS (the
     skipped nodes are never observable as sentinels); a failed jump
     means a helper already swung [head] one node on our behalf, so
     only the claimed first element is delivered — the per-item path's
     behaviour. Uncontended cost: 2 CASes per prefix vs 2 per element.
     When the shared [max_failures] budget runs out, a single slow-path
     descriptor collects the remaining suffix. *)
  let dequeue_batch t ~tid ~n =
    if n < 0 then invalid_arg "Kp_queue_fps.dequeue_batch: n";
    if n = 0 then []
    else begin
      op_enter t ~tid;
      note_batch_size t ~tid n;
      maybe_help t ~tid;
      let rec go acc got failures cas =
        if got = n then begin
          note_batch_cas t ~tid cas;
          if failures > 0 then note_fast_rounds t ~tid failures;
          List.rev acc
        end
        else if failures >= t.ext.max_failures then begin
          note_fast_rounds t ~tid failures;
          note_batch_cas t ~tid cas;
          List.rev_append acc (slow_dequeue_batch t ~tid ~want:(n - got))
        end
        else
          let first = A.get t.head in
          let claim0 = A.get first.deq_tid in
          let last = A.get t.tail in
          let next = A.get first.next in
          if first == A.get t.head then
            if first == last then
              match next with
              | None ->
                  (* Observed empty: the batch completes short. *)
                  note_batch_cas t ~tid cas;
                  if failures > 0 then note_fast_rounds t ~tid failures;
                  fast_hit t ~tid;
                  List.rev acc
              | Some _ ->
                  help_finish_enq t ~self:tid;
                  go acc got (failures + 1) cas
            else
              match next with
              | None -> go acc got (failures + 1) cas (* transient view *)
              | Some nx ->
                  if
                    try_claim first ~observed:claim0
                      ~tid:(t.num_threads + tid)
                  then begin
                    let v1 =
                      match nx.value with
                      | Some v -> v
                      | None -> assert false
                    in

                    (* Walk up to the remaining want along the stable
                       chain, newest first — capped at the observed
                       [last]: jumping [head] past [tail] would strand
                       [tail] on a grabbed (possibly released) node and
                       break the MS head-behind-tail invariant, which
                       enqueuers rely on. [last] was read while the
                       sentinel was [first] (the claim's success proves
                       the view), so it is on the chain at or after
                       [nx]; a lagging cap only shortens the grab. *)
                    let rec walk node vs m =
                      if m = n - got || node == last then (node, vs, m)
                      else
                        match A.get node.next with
                        | None -> (node, vs, m)
                        | Some nx2 ->
                            let v =
                              match nx2.value with
                              | Some v -> v
                              | None -> assert false
                            in
                            walk nx2 (v :: vs) (m + 1)
                    in
                    let last_node, extra_rev, m = walk nx [] 1 in
                    fast_hit t ~tid;
                    if A.compare_and_set t.head first last_node then begin
                      (* The skipped nodes [first .. pred last_node] are
                         unreachable from [head] and claimed/covered by
                         us alone — read each [next] before releasing
                         its node. *)
                      let rec release_prefix node =
                        if node != last_node then begin
                          let nxt = A.get node.next in
                          release_node t ~self:tid node;
                          match nxt with
                          | Some nxt -> release_prefix nxt
                          | None -> ()
                        end
                      in
                      release_prefix first;
                      go (extra_rev @ (v1 :: acc)) (got + m) failures (cas + 2)
                    end
                    else
                      (* A helper swung [head] one node for us: only the
                         claimed first element was taken. *)
                      go (v1 :: acc) (got + 1) failures (cas + 2)
                  end
                  else begin
                    note_claim_handoff t ~tid;
                    help_finish_deq t ~self:tid;
                    go acc got (failures + 1) (cas + 1)
                  end
          else go acc got (failures + 1) cas
      in
      let result = go [] 0 0 0 in
      op_exit t ~tid;
      result
    end

  (* ------------------------------------------------------------------ *)
  (* Observers (quiescent use) and white-box probes                     *)
  (* ------------------------------------------------------------------ *)

  let to_list = C.to_list
  let length = C.length
  let is_empty = C.is_empty

  let check_quiescent_invariants (t : 'a t) =
    match C.check_quiescent_invariants t with
    | Error _ as e -> e
    | Ok () ->
        let n = A.get t.ext.slow_pending in
        if n <> 0 then Error (Printf.sprintf "slow_pending = %d at quiescence" n)
        else Ok ()

  let max_failures (t : 'a t) = t.ext.max_failures
  let fast_path_hits_of (t : 'a t) ~tid =
    Wfq_obsv.Counter.slot_value t.ext.fast_hits ~slot:tid
  let fast_path_hits (t : 'a t) = Wfq_obsv.Counter.total t.ext.fast_hits
  let slow_path_entries (t : 'a t) = Wfq_obsv.Counter.total t.ext.slow_entries
  let pending_of = C.pending_of
  let phase_of = C.phase_of
  let pool_stats = C.pool_stats

  (* Attach the always-on path counters (and, when pooled, the pools'
     counters and gauges) to a metrics registry. The optional [?obsv]
     handle registers itself at construction; this covers the rest. *)
  let register_metrics (t : 'a t) registry ~prefix =
    let open Wfq_obsv in
    Metrics.gauge registry ~name:(prefix ^ ".depth") (fun () -> length t);
    Metrics.register registry (prefix ^ ".fast_hits")
      (Metrics.Counter t.ext.fast_hits);
    Metrics.register registry (prefix ^ ".slow_entries")
      (Metrics.Counter t.ext.slow_entries);
    register_pool_metrics t registry ~prefix
end
