(** The Kogan-Petrank slow path, shared by the queue family
    ([Kp_queue], [Kp_queue_fps]).

    One copy of the paper's phase-based helping scheme: the node /
    linked-list representation (Figure 1, lines 1-12), the operation
    descriptors and their pools, phase selection (L48-57), the
    finishing helpers (L85-97, L141-153), [help_enq] (L67-84),
    [help_deq] (L109-140), the batch-dequeue driver, the helping
    policies (L36-47 and §3.3) and the quiescent audit. [Kp_queue] is
    the paper's public operations over it; [Kp_queue_fps] layers a
    bounded Michael-Scott fast path over it unchanged
    (docs/FASTPATH.md).

    Nodes: a singly-linked list behind a sentinel. [value] is [None]
    only for a sentinel; [enq_tid] is written once at node creation
    while [deq_tid] is contended, hence atomic (L5). [enq_tid] doubles
    as the fast-path marker: a node appended by a fast-path (plain
    Michael-Scott) enqueue carries [enq_tid = no_tid], telling helpers
    there is no descriptor to finish — only [tail] to advance.
    Slow-path nodes carry the enqueuer's real tid.

    To support node recycling ([Segment_pool]) the once-written fields
    ([value], [enq_tid]) are mutable — still written only by the
    allocating enqueuer before the node is published — and [deq_tid]
    holds an {e epoch-tagged} word ([Counted_atomic.Epoch]): payload =
    the claiming tid (or [no_tid]), epoch = the node's incarnation.
    Epoch 0 packs to the raw value, so unpooled queues (which never
    recycle and stay at epoch 0) see exactly the historical
    representation. [recycle] bumps the incarnation, which is what
    makes a stalled helper's claim CAS on a recycled node fail instead
    of ABA-claiming the new incarnation.

    The traversal observers are quiescent-use-only, exactly as in the
    queues' interfaces. *)

module Epoch = Wfq_primitives.Counted_atomic.Epoch

type help_policy =
  | Help_all  (** base algorithm: scan the whole [state] array (L36-47) *)
  | Help_one_cyclic
      (** optimization 1: help at most one other pending operation per call,
          choosing candidates cyclically *)
  | Help_chunk of int
      (** §3.3 generalization of optimization 1: traverse a cyclic chunk of
          [k] candidates per operation ("indexes 0 through k-1 mod n ...
          in the second invocation k mod n through 2k-1 mod n, and so
          on"). [Help_chunk 1] behaves like {!Help_one_cyclic};
          [Help_chunk (n-1)] approaches {!Help_all}. Wait-freedom is
          preserved: a thread bypasses a given peer at most [ceil (n/k)]
          consecutive times. *)

type phase_policy =
  | Phase_scan  (** base algorithm: [maxPhase()] scan (L48-57) *)
  | Phase_counter
      (** optimization 2: atomic counter bumped by a CAS whose result is
          deliberately ignored (footnote 3) *)

(** The further enhancements sketched in §3.3, off by default (the paper
    evaluates the base and optimized variants without them). *)
type tuning = {
  gc_friendly : bool;
      (** enhancement 2: before returning from an operation, overwrite
          the thread's descriptor with a dummy holding no node reference,
          so a long-dequeued node cannot be kept live by a stale
          descriptor (the paper's "considered by the garbage collector as
          a live object" leak) *)
  validate_before_cas : bool;
      (** enhancement 3: read the pending flag before the descriptor
          CASes of L93/L149 and skip the allocation + CAS when the flag
          is already off *)
}

let default_tuning = { gc_friendly = false; validate_before_cas = false }

(* [Kp_queue]'s instrumentation handle (Wfq_obsv): per-tid
   single-writer cells only, so an instrumented queue performs no extra
   shared-cell traffic — the protocol's atomic-step traces are
   identical with and without it (test/test_obsv.ml pins this under
   DPOR). [None] compiles the hot paths down to the uninstrumented
   match arm. *)
type metrics = {
  m_help : Wfq_obsv.Counter.t;
      (* peer-help dispatches, per helper tid (paper L36-47 scans that
         found a pending peer; self-dispatches are not counted) *)
  m_phase_lag : Wfq_obsv.Histogram.t;
      (* helper's phase minus the helped peer descriptor's phase at
         dispatch time: how far behind the operations we rescue are *)
  m_desc_cas_fail : Wfq_obsv.Counter.t;
      (* descriptor-completion/publication CASes lost to a racing
         helper (every [drop_desc] site) *)
  m_phase_cas_lost : Wfq_obsv.Counter.t;
      (* Phase_counter bumps whose CAS failed (footnote 3): the bump is
         lost, the phase is shared with the winner — harmless for
         correctness, but otherwise invisible *)
  m_batch_size : Wfq_obsv.Histogram.t;
      (* elements per batch operation (enqueue_batch chain length /
         dequeue_batch want), recorded once per batch at entry — the
         denominator of the amortized-CAS story (docs/BATCHING.md) *)
}

let metrics registry ~prefix ~slots =
  let open Wfq_obsv in
  {
    m_help = Metrics.counter registry ~name:(prefix ^ ".help_events") ~slots;
    m_phase_lag =
      Metrics.histogram registry ~name:(prefix ^ ".phase_lag") ~slots;
    m_desc_cas_fail =
      Metrics.counter registry ~name:(prefix ^ ".desc_cas_failures") ~slots;
    m_phase_cas_lost =
      Metrics.counter registry ~name:(prefix ^ ".phase_cas_lost") ~slots;
    m_batch_size =
      Metrics.histogram registry ~name:(prefix ^ ".batch_size") ~slots;
  }

module Make (A : Wfq_primitives.Atomic_intf.ATOMIC) = struct
  module Pool = Wfq_primitives.Segment_pool.Make (A)

  type 'a node = {
    mutable value : 'a option;
    next : 'a node option A.t;
    mutable enq_tid : int;
    deq_tid : int A.t;
    (* Intrusive [Segment_pool] storage: the free-list/quarantine link
       (the queue's nil node when unlinked) and the retire-epoch stamp.
       Owned by the pool while the node is retired; dead storage while
       the node is live. *)
    mutable pool_next : 'a node;
    mutable pool_stamp : int;
  }

  (** [enq_tid] of the sentinel and of fast-path nodes; also the
      unclaimed payload of every [deq_tid]. *)
  let no_tid = -1

  (** Words between two tids' cells in a per-tid plain array (the cyclic
      helping cursors), so that adjacent tids never write one line. *)
  let cursor_stride = Wfq_obsv.Counter.stride

  (* [pool_next] is dead storage while a node is live, but the type has
     no null, so it must point at some node. Each queue makes one nil
     node for that at creation and every later node points at it. The
     nil node is the one self-referential [let rec] record: OCaml 5.1
     builds such a record twice (a dummy block first, then the real
     one copied over it), doubling its words and time, so a per-node
     self-reference would do that on every enqueue. The nil node is
     never linked into a list, so it keeps no node alive. *)
  let make_nil () =
    let next = A.make None in
    let deq_tid = A.make no_tid in
    let rec n =
      { value = None; next; enq_tid = no_tid; deq_tid; pool_next = n;
        pool_stamp = 0 }
    in
    n

  (* A node holding [value] ([None] for a sentinel); one plain record. *)
  let make_node ~nil ~enq_tid value =
    let next = A.make None in
    let deq_tid = A.make no_tid in
    { value; next; enq_tid; deq_tid; pool_next = nil; pool_stamp = 0 }

  let make_sentinel ~nil = make_node ~nil ~enq_tid:no_tid None

  let pool_ops =
    {
      Wfq_primitives.Segment_pool.get_next = (fun n -> n.pool_next);
      set_next = (fun n m -> n.pool_next <- m);
      get_stamp = (fun n -> n.pool_stamp);
      set_stamp = (fun n s -> n.pool_stamp <- s);
    }

  (* ------------------------------------------------------------------ *)
  (* Epoch-tagged claim protocol                                        *)
  (* ------------------------------------------------------------------ *)

  (** The claiming tid of [node] (or [no_tid]), stripped of its epoch. *)
  let claimed_tid node = Epoch.value (A.get node.deq_tid)

  (** One claim attempt. [observed] is [node]'s claim word as read {e
      when the caller obtained its reference to [node]} (i.e. when it
      read [head]); the CAS expects that exact word, so it validates
      payload ("still unclaimed") and epoch ("still the incarnation I
      saw") atomically. A helper that stalled across a recycle holds an
      old incarnation's word: its CAS fails instead of ABA-claiming the
      new incarnation. When [observed] is already claimed the CAS is
      skipped entirely — same single-CAS budget as the historical
      [compare_and_set deq_tid (-1) tid], keeping the §3.3 RMW cost
      model intact. *)
  let try_claim node ~observed ~tid =
    Epoch.value observed = no_tid
    && A.compare_and_set node.deq_tid observed (Epoch.with_value observed tid)

  (** Reset a node for its next life: clear the payload fields and bump
      [deq_tid] to the next incarnation's unclaimed word. Called from
      the pool's [reset] with the node quiescent (quarantine has proven
      no thread still holds a reference). *)
  let recycle node =
    node.value <- None;
    node.enq_tid <- no_tid;
    A.set node.next None;
    A.set node.deq_tid (Epoch.next_incarnation (A.get node.deq_tid))

  (** Recycle {e without} bumping the incarnation — the seeded fault for
      the DPOR calibration scenario ([Untagged_pool_claim]): with the
      tag gone, a stalled helper's claim CAS can ABA a recycled node. *)
  let recycle_untagged node =
    node.value <- None;
    node.enq_tid <- no_tid;
    A.set node.next None;
    A.set node.deq_tid no_tid

  (* ------------------------------------------------------------------ *)
  (* Descriptors, pools and the queue record                            *)
  (* ------------------------------------------------------------------ *)

  (* Paper Figure 1, lines 13-24. State slots advance by physical-
     equality CAS exactly like Java reference CAS. The fields are
     mutable only to support descriptor recycling (the §3.3 gc-friendly
     reset generalized): a pooled record's fields are written by its
     allocator {e before} it is published through the slot's atomic
     CAS/exchange, and never after — so every reader that can reach the
     record observes frozen values, exactly as with immutable records.
     Stale readers that still hold a displaced record are covered by the
     pool's quarantine: the record cannot be recycled (hence re-written)
     until they finish their operation. *)
  type 'a op_desc = {
    mutable phase : int;
    mutable pending : bool;
    mutable enqueue : bool;
    mutable node : 'a node option;
    (* Batch extension. A batch enqueue publishes one descriptor for a
       pre-linked chain of nodes: [node] is the chain's first node (the
       single L74 CAS linearizes the whole chain) and [last_node] its
       last, so [help_finish_enq] fixes [tail] with one jump over the
       batch. A batch dequeue publishes [want] > 0; each element claim
       appends its value to [taken] (length cached in [got_n]) by
       replacing the whole record, and the operation stays pending
       until [got_n = want] or the queue empties. Single operations
       keep [last_node = None] and [want = 0]. *)
    mutable last_node : 'a node option;
    mutable want : int;
    mutable got_n : int;
    mutable taken : 'a list;
    (* Intrusive Segment_pool link + retire stamp (see
       Segment_pool.ops); dead storage while the descriptor is
       published. *)
    mutable pool_next : 'a op_desc;
    mutable pool_stamp : int;
  }

  (* The queue's [idle_desc]: the one self-referential descriptor.
     Every other descriptor's dead [pool_next] points at it, so each is
     one plain record, not the dummy-then-copy pair OCaml builds for a
     [let rec] record. *)
  let make_idle_desc () =
    let rec d =
      { phase = -1; pending = false; enqueue = true; node = None;
        last_node = None; want = 0; got_n = 0; taken = [];
        pool_next = d; pool_stamp = 0 }
    in
    d

  let blank_desc ~idle () =
    { phase = -1; pending = false; enqueue = true; node = None;
      last_node = None; want = 0; got_n = 0; taken = [];
      pool_next = idle; pool_stamp = 0 }

  let desc_ops =
    {
      Wfq_primitives.Segment_pool.get_next = (fun d -> d.pool_next);
      set_next = (fun d e -> d.pool_next <- e);
      get_stamp = (fun d -> d.pool_stamp);
      set_stamp = (fun d s -> d.pool_stamp <- s);
    }

  (* Allocation recycling: one pool of list nodes and one of
     descriptors, sharing a single epoch clock — one enter/exit
     announcement per queue operation covers both. [descs] is [None]
     when quarantine is disabled: descriptor reuse is only sound under
     quarantine (a stale helper still dereferences the displaced
     record's fields), whereas node reuse with the epoch tag alone is
     exactly what the model-checking scenario isolates. *)
  type 'a pools = {
    nodes : 'a node Pool.t;
    descs : 'a op_desc Pool.t option;
  }

  (* [head], [tail], the [state] slots and the phase counter are
     contended cells ([A.make_contended]), one cache line each: they
     are CASed under contention, so packing them into adjacent heap
     words would false-share lines between helpers. ['x] is the front
     end's own state ([unit] for the paper's queue, the fast path's
     counters and budget for [Kp_queue_fps]). *)
  type ('a, 'x) t = {
    head : 'a node A.t; (* L25 *)
    tail : 'a node A.t; (* L25 *)
    state : 'a op_desc A.t array; (* L26 *)
    phase_counter : int A.t; (* optimization 2 (§3.3) *)
    help_policy : help_policy;
    phase_policy : phase_policy;
    tuning : tuning;
    help_cursor : int array;
        (* per-tid cyclic cursor for the cyclic helping policies, at
           [tid * cursor_stride]; single-writer *)
    num_threads : int;
    pools : 'a pools option;
    obsv : metrics option;
    stale_helper : bool;
        (* seeded bug (tests only): help at the caller's phase bound *)
    idle_desc : 'a op_desc;
        (* the shared construction-time descriptor; never pool-released *)
    nil : 'a node; (* the [pool_next] of unpooled nodes; never linked *)
    ext : 'x;
  }

  (* [who] names the front end in [Invalid_argument] messages; [ext]
     builds its state once the shared arguments are validated.
     [untagged] and [stale_helper] reinstate seeded bugs (tests only). *)
  let create ~who ~ext ?(tuning = default_tuning) ?(pool = false)
      ?pool_segment ?(pool_quarantine = true) ?obsv ?(untagged = false)
      ?(stale_helper = false) ~help ~phase ~num_threads () =
    let invalid what = invalid_arg (who ^ ".create: " ^ what) in
    if num_threads <= 0 then invalid "num_threads";
    (match help with
    | Help_chunk k when k <= 0 -> invalid "chunk size must be positive"
    | Help_all | Help_one_cyclic | Help_chunk _ -> ());
    (match pool_segment with
    | Some k when k <= 0 -> invalid "pool_segment must be positive"
    | _ -> ());
    let ext = ext () in
    let nil = make_nil () in
    let sentinel = make_sentinel ~nil in
    let idle = make_idle_desc () in
    let pools =
      if not pool then None
      else begin
        let clock = Pool.Clock.create ~num_threads in
        let nodes =
          Pool.create ?segment_size:pool_segment
            ~quarantine:pool_quarantine ~clock ~num_threads ~ops:pool_ops
            ~fresh:(fun () -> make_sentinel ~nil)
            ~reset:(if untagged then recycle_untagged else recycle)
            ()
        in
        let descs =
          if pool_quarantine then
            Some
              (Pool.create ?segment_size:pool_segment ~quarantine:true
                 ~clock ~num_threads ~ops:desc_ops
                 ~fresh:(blank_desc ~idle) ~reset:(fun _ -> ()) ())
          else None
        in
        Some { nodes; descs }
      end
    in
    {
      head = A.make_contended sentinel;
      tail = A.make_contended sentinel;
      state = Array.init num_threads (fun _ -> A.make_contended idle);
      phase_counter = A.make_contended (-1);
      help_policy = help;
      phase_policy = phase;
      tuning;
      help_cursor = Array.make (num_threads * cursor_stride) 0;
      num_threads;
      pools;
      obsv;
      stale_helper;
      idle_desc = idle;
      nil;
      ext;
    }

  (* ------------------------------------------------------------------ *)
  (* Pool plumbing. [self] is always the {e executing} thread's tid —    *)
  (* a helper allocates and releases through its own pool slot, never    *)
  (* the helped thread's (the slots are single-owner).                   *)
  (* ------------------------------------------------------------------ *)

  let op_enter t ~tid =
    match t.pools with Some p -> Pool.enter p.nodes ~tid | None -> ()

  let op_exit t ~tid =
    match t.pools with Some p -> Pool.exit p.nodes ~tid | None -> ()

  let alloc_node t ~self ~enq_tid value =
    match t.pools with
    | Some p ->
        let n = Pool.alloc p.nodes ~tid:self in
        n.value <- Some value;
        n.enq_tid <- enq_tid;
        n
    | None -> make_node ~nil:t.nil ~enq_tid (Some value)

  (* Pre-link a batch's remaining values behind [first] with plain
     stores (nobody else can reach these nodes yet); returns the chain's
     last node. *)
  let link_chain t ~self ~enq_tid first rest =
    List.fold_left
      (fun prev v ->
        let n = alloc_node t ~self ~enq_tid v in
        A.set prev.next (Some n);
        n)
      first rest

  (* Called by the unique winner of the head-swing CAS: at that point
     the old sentinel is unreachable from the queue, and the pool's
     quarantine keeps it intact until every in-flight operation (which
     may still hold a reference from an earlier head read) finishes. *)
  let release_node t ~self n =
    match t.pools with
    | Some p -> Pool.release p.nodes ~tid:self n
    | None -> ()

  (* Full-arity allocator: the batch protocol threads [last]/[want]/
     [got]/[taken] through every record transition. [mk_desc] below is
     the single-operation shorthand. *)
  let mk_desc_b t ~self ~phase ~pending ~enqueue ~last ~want ~got ~taken
      ~node =
    match t.pools with
    | Some { descs = Some dp; _ } ->
        let d = Pool.alloc dp ~tid:self in
        d.phase <- phase;
        d.pending <- pending;
        d.enqueue <- enqueue;
        d.node <- node;
        d.last_node <- last;
        d.want <- want;
        d.got_n <- got;
        d.taken <- taken;
        d
    | _ ->
        { phase; pending; enqueue; node; last_node = last; want;
          got_n = got; taken; pool_next = t.idle_desc; pool_stamp = 0 }

  let mk_desc t ~self ~phase ~pending ~enqueue ~node =
    mk_desc_b t ~self ~phase ~pending ~enqueue ~last:None ~want:0 ~got:0
      ~taken:[] ~node

  (* A descriptor that lost its publication CAS was never visible to
     anyone: back to the pool immediately. Every call site is a lost
     descriptor CAS, so this is also the counting point. *)
  let drop_desc t ~self d =
    (match t.obsv with
    | Some m -> Wfq_obsv.Counter.incr m.m_desc_cas_fail ~slot:self
    | None -> ());
    match t.pools with
    | Some { descs = Some dp; _ } -> Pool.release dp ~tid:self d
    | _ -> ()

  (* The record displaced by a successful publication. Physical-equality
     CAS (and the owner's atomic exchange) guarantee a unique displacer
     per record, so each is retired exactly once. *)
  let retire_desc t ~self d =
    if d != t.idle_desc then
      match t.pools with
      | Some { descs = Some dp; _ } -> Pool.release dp ~tid:self d
      | _ -> ()

  (* Owner-side publication. Unpooled: the historical plain store.
     Pooled: an atomic exchange, so the displaced record is recovered
     without racing a helper's completion CAS on the same slot (a plain
     read-then-store pair could retire a record a concurrent helper
     just displaced, double-releasing it). *)
  let publish t ~tid d =
    match t.pools with
    | Some { descs = Some _; _ } ->
        retire_desc t ~self:tid (A.exchange t.state.(tid) d)
    | _ -> A.set t.state.(tid) d

  (* L48-57 *)
  let max_phase t =
    Array.fold_left
      (fun acc slot -> max acc (A.get slot).phase)
      (-1) t.state

  let next_phase t ~tid =
    match t.phase_policy with
    | Phase_scan -> max_phase t + 1
    | Phase_counter ->
        (* Footnote 3: a failed CAS just means another thread picked the
           same phase, which is harmless for correctness — the phase
           need not be unique, only non-decreasing — so the bump is
           dropped rather than retried, and counted. *)
        let cur = A.get t.phase_counter in
        if not (A.compare_and_set t.phase_counter cur (cur + 1)) then begin
          match t.obsv with
          | Some m -> Wfq_obsv.Counter.incr m.m_phase_cas_lost ~slot:tid
          | None -> ()
        end;
        cur + 1

  (* L58-60 *)
  let is_still_pending t tid phase =
    let desc = A.get t.state.(tid) in
    desc.pending && desc.phase <= phase

  (* ------------------------------------------------------------------ *)
  (* Enqueue (paper Figure 4)                                           *)
  (* ------------------------------------------------------------------ *)

  (* L85-97: finish the in-progress enqueue, if any. Steps (2) and (3) of
     the scheme: flip the owner's pending flag, then advance [tail]. The
     descriptor CAS (L93) can succeed more than once per node — benign,
     because the replacement descriptor is identical each time.

     A node with [enq_tid < 0] was appended by a fast-path (bounded
     Michael-Scott) enqueue and has no descriptor: the only thing left
     is to advance [tail] (the appender may have been preempted before
     its tail CAS). The paper's queue never appends such a node.

     Batch extension: when the appended node heads a pre-linked chain,
     the (validated-fresh) descriptor carries the chain's last node and
     the tail fix jumps over the whole batch in one CAS. The jump is
     safe for the head/tail ordering invariant: claims only happen
     after reading [tail] strictly ahead of [head], so no dequeuer can
     enter the chain before the jump lands, and the CAS-from-[last]
     guarantees the jump only moves [tail] forward. *)
  let help_finish_enq t ~self =
    let last = A.get t.tail in
    let next_o = A.get last.next in
    match next_o with
    | None -> ()
    | Some next ->
        let tid = next.enq_tid in
        if tid < 0 then ignore (A.compare_and_set t.tail last next)
        else begin
          (* L89: only real enqueued nodes carry a descriptor tid. *)
          assert (tid < t.num_threads);
          let cur_desc = A.get t.state.(tid) in
          (* L91: verify the slot still refers to the node just
             appended; guards against racing [help_finish_enq] calls.
             The jump target comes from the {e fresh} descriptor read
             (the one the guard validated against [next_o]), never from
             [cur_desc]: a stale [cur_desc] from an older operation
             merely loses its completion CAS, but a stale [last_node]
             would teleport [tail]. *)
          if last == A.get t.tail then begin
            let slot_desc = A.get t.state.(tid) in
            if slot_desc.node == next_o then begin
              let target =
                match slot_desc.last_node with Some l -> l | None -> next
              in
              (* Enhancement 3 (§3.3): if helpers already flipped the
                 flag, skip the descriptor allocation and CAS — it would
                 fail or be a no-op — and go straight to fixing the
                 tail. *)
              if (not t.tuning.validate_before_cas) || cur_desc.pending
              then begin
                let new_desc =
                  mk_desc_b t ~self ~phase:cur_desc.phase ~pending:false
                    ~enqueue:true ~last:cur_desc.last_node ~want:0 ~got:0
                    ~taken:[] ~node:next_o
                in
                if A.compare_and_set t.state.(tid) cur_desc new_desc then
                  retire_desc t ~self cur_desc
                else drop_desc t ~self new_desc
              end;
              ignore (A.compare_and_set t.tail last target)
            end
          end
        end

  (* L67-84: drive thread [tid]'s pending enqueue to completion. The outer
     [is_still_pending] check (L68) is what bounds the loop: it fails as
     soon as any helper completes the operation. *)
  let rec help_enq t ~self tid phase =
    if is_still_pending t tid phase then begin
      let last = A.get t.tail in
      let next = A.get last.next in
      if last == A.get t.tail then
        match next with
        | None ->
            (* L72: tail is accurate, an enqueue can be applied. The inner
               re-check (L73) preserves linearizability: without it a
               stale helper could append a node for an operation that
               already completed. *)
            if is_still_pending t tid phase then begin
              let node = (A.get t.state.(tid)).node in
              if A.compare_and_set last.next None node then begin
                (* L74 succeeded: the operation is linearized. *)
                help_finish_enq t ~self
              end
              else help_enq t ~self tid phase
            end
            else help_enq t ~self tid phase
        | Some _ ->
            (* L79-81: some enqueue is mid-flight; finish it, then retry. *)
            help_finish_enq t ~self;
            help_enq t ~self tid phase
      else help_enq t ~self tid phase
    end

  (* ------------------------------------------------------------------ *)
  (* Dequeue (paper Figure 6)                                           *)
  (* ------------------------------------------------------------------ *)

  (* L141-153: finish the dequeue of whichever thread locked the sentinel
     (wrote its tid into [head]'s [deq_tid], L135).

     A claim [>= num_threads] belongs to a fast-path dequeue
     ([num_threads + tid], disjoint from slow-path tids): no descriptor
     to complete, only [head] to swing. The paper's queue never claims
     that way.

     Batch extension ([want] > 0): the claim is one element of a batch.
     Its value is [first.next]'s — appended to [taken] by replacing the
     whole record, which also decides whether the batch stays pending.
     The transition is guarded on the descriptor still recording
     [first]: every transition installs a fresh record, so a stale
     helper's CAS fails and each element is counted exactly once. The
     head swing (step 3) stays unconditional either way. *)
  let help_finish_deq t ~self =
    let first = A.get t.head in
    let next = A.get first.next in
    let tid = claimed_tid first in (* L144, epoch tag stripped *)
    if tid >= t.num_threads then begin
      match next with
      | Some next_node when first == A.get t.head ->
          if A.compare_and_set t.head first next_node then
            release_node t ~self first
      | Some _ | None -> ()
    end
    else if tid <> no_tid then begin
      let cur_desc = A.get t.state.(tid) in
      match next with
      | Some next_node when first == A.get t.head ->
          (if cur_desc.want > 0 then begin
             let points_to_first =
               match cur_desc.node with
               | Some n -> n == first
               | None -> false
             in
             if cur_desc.pending && points_to_first then begin
               let v =
                 match next_node.value with
                 | Some v -> v
                 | None -> assert false
               in
               let got = cur_desc.got_n + 1 in
               let new_desc =
                 mk_desc_b t ~self ~phase:cur_desc.phase
                   ~pending:(got < cur_desc.want) ~enqueue:false
                   ~last:None ~want:cur_desc.want ~got
                   ~taken:(v :: cur_desc.taken) ~node:None
               in
               if A.compare_and_set t.state.(tid) cur_desc new_desc then
                 retire_desc t ~self cur_desc
               else drop_desc t ~self new_desc
             end
           end
           else if (not t.tuning.validate_before_cas) || cur_desc.pending
           then begin
             let new_desc =
               mk_desc t ~self ~phase:cur_desc.phase ~pending:false
                 ~enqueue:false ~node:cur_desc.node
             in
             if A.compare_and_set t.state.(tid) cur_desc new_desc then
               retire_desc t ~self cur_desc
             else drop_desc t ~self new_desc
           end);
          (* L150: step (3) — physically remove the old sentinel. The
             unique winner retires it into the pool (quarantined until
             in-flight operations that may still hold a reference to it
             finish). *)
          if A.compare_and_set t.head first next_node then
            release_node t ~self first
      | Some _ | None -> ()
    end

  (* L109-140. Stage (1) — pointing the owner's descriptor at the current
     sentinel — exists to make the empty case race-free: a helper that
     sees an empty queue (L116-121) CASes the owner's descriptor from one
     that does NOT point at the sentinel, so it cannot race with a helper
     that saw a non-empty queue and already performed stage (1). *)
  let rec help_deq t ~self tid phase =
    if is_still_pending t tid phase then begin
      let first = A.get t.head in
      (* Capture the sentinel's claim word {e at the same moment} as the
         head reference: the later claim CAS expects this exact word, so
         a node recycled in between (its incarnation epoch bumped)
         cannot be ABA-claimed. Unpooled queues stay at epoch 0, where
         the word is literally the historical [-1]/tid value. *)
      let claim0 = A.get first.deq_tid in
      let last = A.get t.tail in
      let next = A.get first.next in
      if first == A.get t.head then
        if first == last then begin
          (* L115: queue might be empty *)
          match next with
          | None ->
              (* L116-121: certainly empty — record the empty outcome in
                 the owner's descriptor (it cannot raise here: this code
                 may run in a helper's context, §3.1). *)
              let cur_desc = A.get t.state.(tid) in
              if last == A.get t.tail && is_still_pending t tid phase
              then begin
                let new_desc =
                  mk_desc t ~self ~phase:cur_desc.phase ~pending:false
                    ~enqueue:false ~node:None
                in
                if A.compare_and_set t.state.(tid) cur_desc new_desc then
                  retire_desc t ~self cur_desc
                else drop_desc t ~self new_desc
              end;
              help_deq t ~self tid phase
          | Some _ ->
              (* L122-123: an enqueue is in progress; help it first. *)
              help_finish_enq t ~self;
              help_deq t ~self tid phase
        end
        else begin
          (* L125-137: queue is not empty *)
          let cur_desc = A.get t.state.(tid) in
          let node = cur_desc.node in
          (* L128: break — required for linearizability. *)
          if is_still_pending t tid phase then begin
            let points_to_first =
              match node with Some n -> n == first | None -> false
            in
            if first == A.get t.head && not points_to_first then begin
              (* L129-133: stage (1) — record the current sentinel. *)
              let new_desc =
                mk_desc t ~self ~phase:cur_desc.phase ~pending:true
                  ~enqueue:false ~node:(Some first)
              in
              if not (A.compare_and_set t.state.(tid) cur_desc new_desc)
              then begin
                drop_desc t ~self new_desc;
                help_deq t ~self tid phase (* L132: continue *)
              end
              else begin
                retire_desc t ~self cur_desc;
                (* L135: stage (2) — lock the sentinel; the successful CAS
                   is the linearization point of the dequeue. *)
                ignore (try_claim first ~observed:claim0 ~tid);
                help_finish_deq t ~self;
                help_deq t ~self tid phase
              end
            end
            else begin
              ignore (try_claim first ~observed:claim0 ~tid);
              help_finish_deq t ~self;
              help_deq t ~self tid phase
            end
          end
        end
      else help_deq t ~self tid phase
    end

  (* Batch dequeue driver: the same claim loop as [help_deq], iterated
     until the descriptor has collected [want] values (its [pending]
     flag is flipped by the [help_finish_deq] batch transition on the
     final element) or the queue empties (terminal record keeps the
     partial [taken]). Any helper can pick up the remaining suffix of a
     claimed batch mid-flight: every per-element step is the standard
     record-CAS / claim-CAS discipline, so helpers and owner interleave
     freely with exactly-once accounting.

     One batch-specific guard: if the current sentinel is already
     claimed by [tid], its head swing has not landed yet (the previous
     element's step 3). Finish it before seeking — recording a
     sentinel this batch already claimed would append its successor's
     value twice. The claim word is read after the descriptor: a
     claim-then-append by another helper between an earlier check and
     the descriptor read would otherwise let this helper re-record the
     consumed sentinel on the post-append descriptor (a duplicate
     delivery DPOR finds under Help_all + Phase_scan, and in the
     fast-path queue with every operation on the slow path). Fast-path
     claims ([num_threads + tid]) never match: slow batch claims use
     the plain tid. *)
  let rec help_batch_deq t ~self tid phase =
    if is_still_pending t tid phase then begin
      let first = A.get t.head in
      let claim0 = A.get first.deq_tid in
      let last = A.get t.tail in
      let next = A.get first.next in
      if first == A.get t.head then
        if first == last then begin
          match next with
          | None ->
              (* Empty: the batch completes with whatever it has. *)
              let cur_desc = A.get t.state.(tid) in
              if last == A.get t.tail && is_still_pending t tid phase
              then begin
                let new_desc =
                  mk_desc_b t ~self ~phase:cur_desc.phase ~pending:false
                    ~enqueue:false ~last:None ~want:cur_desc.want
                    ~got:cur_desc.got_n ~taken:cur_desc.taken ~node:None
                in
                if A.compare_and_set t.state.(tid) cur_desc new_desc then
                  retire_desc t ~self cur_desc
                else drop_desc t ~self new_desc
              end;
              help_batch_deq t ~self tid phase
          | Some _ ->
              help_finish_enq t ~self;
              help_batch_deq t ~self tid phase
        end
        else begin
          let cur_desc = A.get t.state.(tid) in
          let node = cur_desc.node in
          if claimed_tid first = tid then begin
            help_finish_deq t ~self;
            help_batch_deq t ~self tid phase
          end
          else if is_still_pending t tid phase then begin
            let points_to_first =
              match node with Some n -> n == first | None -> false
            in
            if first == A.get t.head && not points_to_first then begin
              (* Stage (1) for the next element: record the current
                 sentinel, carrying the batch progress across. *)
              let new_desc =
                mk_desc_b t ~self ~phase:cur_desc.phase ~pending:true
                  ~enqueue:false ~last:None ~want:cur_desc.want
                  ~got:cur_desc.got_n ~taken:cur_desc.taken
                  ~node:(Some first)
              in
              if not (A.compare_and_set t.state.(tid) cur_desc new_desc)
              then begin
                drop_desc t ~self new_desc;
                help_batch_deq t ~self tid phase
              end
              else begin
                retire_desc t ~self cur_desc;
                ignore (try_claim first ~observed:claim0 ~tid);
                help_finish_deq t ~self;
                help_batch_deq t ~self tid phase
              end
            end
            else begin
              ignore (try_claim first ~observed:claim0 ~tid);
              help_finish_deq t ~self;
              help_batch_deq t ~self tid phase
            end
          end
        end
      else help_batch_deq t ~self tid phase
    end

  (* ------------------------------------------------------------------ *)
  (* Helping policies                                                   *)
  (* ------------------------------------------------------------------ *)

  (* The phase passed DOWN is the descriptor's own ([desc.phase]), as in
     the paper's help() (Fig. 2) — not the caller's bound. A tid's
     phases strictly increase, so a helper that read the descriptor
     before the operation completed fails its [is_still_pending]
     re-check as soon as the tid publishes its next operation. Helping
     at the caller's (larger) bound would let a stale helper latch onto
     that next operation — possibly of the other kind, e.g. rewriting a
     pending enqueue descriptor through the dequeue helper, or
     re-appending a consumed node. The fast path's [maybe_help] helps
     at bound [max_int], which is only safe because of this. *)
  let help_slot t ~self i phase =
    let desc = A.get t.state.(i) in
    if desc.pending && desc.phase <= phase then begin
      (* Peer helps only: dispatching your own freshly-published op is
         the common uncontended path (lag 0 by construction), so
         counting it would bury the signal and put a histogram record
         on every operation. A help event is rescuing someone else. *)
      (if i <> self then
         match t.obsv with
         | Some m ->
             Wfq_obsv.Counter.incr m.m_help ~slot:self;
             (* How stale is the operation we are about to rescue?
                Large lags mean threads are falling behind their
                helpers (scheduling pressure). *)
             Wfq_obsv.Histogram.record m.m_phase_lag ~slot:self
               (phase - desc.phase)
         | None -> ());
      let bound = if t.stale_helper then phase else desc.phase in
      if desc.enqueue then help_enq t ~self i bound
      else if desc.want > 0 then help_batch_deq t ~self i bound
      else help_deq t ~self i bound
    end

  (* L36-47, or the §3.3 cyclic variant. Either way the caller's own
     operation is completed before returning. *)
  let run_help t ~tid ~phase =
    match t.help_policy with
    | Help_all ->
        for i = 0 to Array.length t.state - 1 do
          help_slot t ~self:tid i phase
        done
    | Help_one_cyclic ->
        let i = tid * cursor_stride in
        let c = t.help_cursor.(i) in
        t.help_cursor.(i) <- (c + 1) mod t.num_threads;
        if c <> tid then help_slot t ~self:tid c phase;
        help_slot t ~self:tid tid phase
    | Help_chunk k ->
        let i = tid * cursor_stride in
        let c = t.help_cursor.(i) in
        t.help_cursor.(i) <- (c + k) mod t.num_threads;
        for j = 0 to min k t.num_threads - 1 do
          let i = (c + j) mod t.num_threads in
          if i <> tid then help_slot t ~self:tid i phase
        done;
        help_slot t ~self:tid tid phase

  (* ------------------------------------------------------------------ *)
  (* The owner's side of a slow-path operation, after its phase pick    *)
  (* ------------------------------------------------------------------ *)

  (* L62-65: publish the enqueue of [first] (a pre-linked chain ending
     at [last] for a batch), help up to the phase, then finalize —
     required for wait-freedom: without it a completed-but-unfinalized
     enqueue would block all future enqueues until the suspended helper
     resumes (§3.2); for a batch it also guarantees the tail jump has
     landed, so the next operation never observes [tail] behind the
     chain. *)
  let run_enq t ~tid ~phase first ~last =
    publish t ~tid
      (mk_desc_b t ~self:tid ~phase ~pending:true ~enqueue:true ~last
         ~want:0 ~got:0 ~taken:[] ~node:(Some first));
    run_help t ~tid ~phase;
    help_finish_enq t ~self:tid

  (* L99-102: publish a dequeue of one element ([want = 0]) or a batch
     of up to [want], help up to the phase, then make sure [head] no
     longer refers to a node our final claim locked. *)
  let run_deq t ~tid ~phase ~want =
    publish t ~tid
      (mk_desc_b t ~self:tid ~phase ~pending:true ~enqueue:false
         ~last:None ~want ~got:0 ~taken:[] ~node:None);
    run_help t ~tid ~phase;
    help_finish_deq t ~self:tid

  (* Enhancement 2 (§3.3): drop the node reference so the descriptor
     cannot keep a node alive once it is dequeued. Safe: the operation
     is finalized, so any stale helper's guards fail before it uses
     this slot. *)
  let gc_reset t ~tid ~phase ~enqueue =
    if t.tuning.gc_friendly then
      publish t ~tid (mk_desc t ~self:tid ~phase ~pending:false ~enqueue ~node:None)

  (* L104-107, after [run_deq ~want:0]: the descriptor points at the
     sentinel that preceded our element at the linearization point, or
     at nothing if the dequeue linearized on an empty queue. The
     sentinel may already be pool-released by the head winner, but
     quarantine keeps its fields intact until the operation exits. *)
  let take_value t ~tid ~phase =
    let v =
      match (A.get t.state.(tid)).node with
      | None -> None
      | Some node -> (
          match A.get node.next with
          | Some next ->
              assert (next.value <> None);
              next.value
          | None -> assert false)
    in
    gc_reset t ~tid ~phase ~enqueue:false;
    v

  (* After [run_deq ~want]: the collected prefix in FIFO order. *)
  let take_batch t ~tid ~phase =
    let taken = List.rev (A.get t.state.(tid)).taken in
    gc_reset t ~tid ~phase ~enqueue:false;
    taken

  (* ------------------------------------------------------------------ *)
  (* Observers (quiescent use)                                          *)
  (* ------------------------------------------------------------------ *)

  let to_list t =
    let rec collect acc node =
      match A.get node.next with
      | None -> List.rev acc
      | Some n ->
          let v = match n.value with Some v -> v | None -> assert false in
          collect (v :: acc) n
    in
    collect [] (A.get t.head)

  let length t =
    let rec count acc node =
      match A.get node.next with None -> acc | Some n -> count (acc + 1) n
    in
    count 0 (A.get t.head)

  let is_empty t = A.get (A.get t.head).next = None

  (* [tail] reachable from [head], no node dangling past [tail], no
     descriptor still pending. *)
  let check_quiescent_invariants t =
    let head = A.get t.head in
    let tail = A.get t.tail in
    let rec reaches node =
      if node == tail then true
      else match A.get node.next with None -> false | Some n -> reaches n
    in
    if not (reaches head) then Error "tail not reachable from head"
    else if A.get tail.next <> None then Error "dangling node after tail"
    else
      match
        Array.fold_left
          (fun n slot -> if (A.get slot).pending then n + 1 else n)
          0 t.state
      with
      | 0 -> Ok ()
      | n -> Error (Printf.sprintf "%d state slots still pending at quiescence" n)

  let phase_of t ~tid = (A.get t.state.(tid)).phase
  let pending_of t ~tid = (A.get t.state.(tid)).pending

  (* Pool telemetry (quiescent use): (reused, fresh, parked) for the
     node pool, and the same for the descriptor pool when recycling
     descriptors; [None] for unpooled queues. *)
  let pool_stats t =
    match t.pools with
    | None -> None
    | Some p ->
        let line pool =
          ( Pool.reused pool,
            Pool.allocated_fresh pool,
            Pool.pooled pool + Pool.quarantined pool )
        in
        Some
          ( line p.nodes,
            match p.descs with Some dp -> Some (line dp) | None -> None )

  (* Attach the node (and descriptor) pools' live counters to a metrics
     registry; no-op for unpooled queues. *)
  let register_pool_metrics t registry ~prefix =
    match t.pools with
    | None -> ()
    | Some p ->
        Pool.register_metrics p.nodes registry ~prefix:(prefix ^ ".nodes");
        (match p.descs with
        | Some dp ->
            Pool.register_metrics dp registry ~prefix:(prefix ^ ".descs")
        | None -> ())
end
