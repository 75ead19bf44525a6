(** Fast-path/slow-path variant of the Kogan-Petrank queue: lock-free
    speed when uncontended, the paper's wait-free helping as a fallback.

    The PPoPP 2011 algorithm pays the helping tax on {e every} operation:
    publish a descriptor, pick a phase, help peers — even with no
    contention at all. This module applies the fast-path/slow-path
    methodology (Kogan & Petrank, PPoPP 2012; used industrially by wCQ,
    arXiv:2201.02179): run a plain Michael-Scott lock-free operation for
    at most [max_failures] failed attempts, and only on persistent
    interference fall back to the phase-based slow path of {!Kp_queue}.

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

    Compatibility between the paths (both share {!Kp_internals} nodes):

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
         descriptor's own phase — the PR 2 livelock, un-fixed *)
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
  module N = Kp_internals.Make (A)
  open N

  module Pool = Wfq_primitives.Segment_pool.Make (A)

  (* Mutable for the same reason as Kp_queue's: pooled records are
     written by their allocator strictly before atomic publication and
     never after, and quarantine keeps displaced records frozen while
     any stale reader is still in an operation. *)
  type 'a op_desc = {
    mutable phase : int;
    mutable pending : bool;
    mutable enqueue : bool;
    mutable node : 'a N.node option;
    (* Batch extension, as in Kp_queue: a batch enqueue's descriptor
       names the pre-linked chain's last node so the tail fix jumps the
       whole batch; a batch dequeue publishes [want] > 0 and
       accumulates claimed values in [taken] ([got_n] caches the
       count), staying pending until the batch is full or the queue
       empties. Single operations keep the defaults. *)
    mutable last_node : 'a N.node option;
    mutable want : int;
    mutable got_n : int;
    mutable taken : 'a list;
    (* Intrusive Segment_pool link + retire stamp (see
       Segment_pool.ops); dead storage while the descriptor is
       published. *)
    mutable pool_next : 'a op_desc;
    mutable pool_stamp : int;
  }

  (* The one self-referential descriptor, as in Kp_queue: every other
     descriptor's dead [pool_next] points at it, so each is one plain
     record. *)
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

  type 'a pools = {
    nodes : 'a N.node Pool.t;
    descs : 'a op_desc Pool.t option; (* None without quarantine *)
  }

  (* [head], [tail], [state], [slow_pending] and [phase_counter] are
     contended cells, one cache line each, as in Kp_queue. *)
  type 'a t = {
    head : 'a N.node A.t;
    tail : 'a N.node A.t;
    (* Slow-path descriptor slots. *)
    state : 'a op_desc A.t array;
    (* Number of threads currently executing a slow-path operation.
       Fast-path operations read it once per operation and help only
       when it is non-zero, keeping the uncontended hot path free of
       helping traffic. *)
    slow_pending : int A.t;
    phase_counter : int A.t;
    help_policy : help_policy;
    phase_policy : phase_policy;
    tuning : tuning;
    max_failures : int;
    fault : fault option; (* test-only seeded bug, None in production *)
    help_cursor : int array; (* at [tid * cursor_stride] *)
    num_threads : int;
    pools : 'a pools option;
    idle_desc : 'a op_desc;
    nil : 'a N.node; (* the [pool_next] of unpooled nodes *)
    (* Single-writer per-tid statistics (exact at quiescence); always on
       — the probes below and debug_dump read them — and padded, unlike
       the plain int arrays they replace, which false-shared adjacent
       tids' cells. *)
    fast_hits : Wfq_obsv.Counter.t;
    slow_entries : Wfq_obsv.Counter.t;
    obsv : metrics option;
  }

  let name = "kp-fps"

  let create_with ?(tuning = default_tuning)
      ?(max_failures = default_max_failures) ?fault ?(pool = false)
      ?pool_segment ?(pool_quarantine = true) ?obsv ~help ~phase
      ~num_threads () =
    if num_threads <= 0 then invalid_arg "Kp_queue_fps.create: num_threads";
    if max_failures < 0 then
      invalid_arg "Kp_queue_fps.create: max_failures must be >= 0";
    (match help with
    | Help_chunk k when k <= 0 ->
        invalid_arg "Kp_queue_fps.create: chunk size must be positive"
    | Help_all | Help_one_cyclic | Help_chunk _ -> ());
    (match pool_segment with
    | Some k when k <= 0 ->
        invalid_arg "Kp_queue_fps.create: pool_segment must be positive"
    | _ -> ());
    let nil = make_nil () in
    let sentinel = make_sentinel ~nil in
    let idle = make_idle_desc () in
    let pools =
      if not pool then None
      else begin
        let clock = Pool.Clock.create ~num_threads in
        let node_reset =
          (* N.recycle, or the tag-dropping variant under the seeded
             Untagged_pool_claim fault. *)
          if fault = Some Untagged_pool_claim then N.recycle_untagged
          else N.recycle
        in
        let nodes =
          Pool.create ?segment_size:pool_segment
            ~quarantine:pool_quarantine ~clock ~num_threads ~ops:N.pool_ops
            ~fresh:(fun () -> make_sentinel ~nil) ~reset:node_reset ()
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
      slow_pending = A.make_contended 0;
      phase_counter = A.make_contended (-1);
      help_policy = help;
      phase_policy = phase;
      tuning;
      max_failures;
      fault;
      help_cursor = Array.make (num_threads * cursor_stride) 0;
      num_threads;
      pools;
      idle_desc = idle;
      nil;
      fast_hits = Wfq_obsv.Counter.create ~slots:num_threads ();
      slow_entries = Wfq_obsv.Counter.create ~slots:num_threads ();
      obsv;
    }

  (* The default slow path uses the paper's fastest configuration (both
     §3.3 optimizations); it is entered rarely, so the difference mostly
     matters under heavy contention, where opt (1+2) wins anyway. *)
  let create ~num_threads () =
    create_with ~help:Help_one_cyclic ~phase:Phase_counter ~num_threads ()

  let max_phase t =
    Array.fold_left
      (fun acc slot -> max acc (A.get slot).phase)
      (-1) t.state

  let next_phase t =
    match t.phase_policy with
    | Phase_scan -> max_phase t + 1
    | Phase_counter ->
        let cur = A.get t.phase_counter in
        ignore (A.compare_and_set t.phase_counter cur (cur + 1));
        cur + 1

  let is_still_pending t tid phase =
    let desc = A.get t.state.(tid) in
    desc.pending && desc.phase <= phase

  (* Optional-instrumentation writes, factored so the operation bodies
     stay readable. All single-writer tid-local stores. *)
  let note_fast_rounds t ~tid n =
    match t.obsv with
    | Some m -> Wfq_obsv.Counter.add m.m_fast_rounds ~slot:tid n
    | None -> ()

  let note_claim_handoff t ~tid =
    match t.obsv with
    | Some m -> Wfq_obsv.Counter.incr m.m_claim_handoff ~slot:tid
    | None -> ()

  let note_batch_size t ~tid k =
    match t.obsv with
    | Some m -> Wfq_obsv.Histogram.record m.m_batch_size ~slot:tid k
    | None -> ()

  let note_batch_cas t ~tid n =
    match t.obsv with
    | Some m -> if n > 0 then Wfq_obsv.Counter.add m.m_batch_cas ~slot:tid n
    | None -> ()

  (* ------------------------------------------------------------------ *)
  (* Pool plumbing — identical scheme to Kp_queue's: [self] is the       *)
  (* executing thread, all alloc/release traffic goes through its own    *)
  (* single-owner pool slot.                                             *)
  (* ------------------------------------------------------------------ *)

  let op_enter t ~tid =
    match t.pools with Some p -> Pool.enter p.nodes ~tid | None -> ()

  let op_exit t ~tid =
    match t.pools with Some p -> Pool.exit p.nodes ~tid | None -> ()

  let alloc_node t ~self ~enq_tid value =
    match t.pools with
    | Some p ->
        let n = Pool.alloc p.nodes ~tid:self in
        n.N.value <- Some value;
        n.N.enq_tid <- enq_tid;
        n
    | None -> make_node ~nil:t.nil ~enq_tid (Some value)

  (* Unique head-swing winner only (both paths). *)
  let release_node t ~self n =
    match t.pools with
    | Some p -> Pool.release p.nodes ~tid:self n
    | None -> ()

  (* Full-arity allocator for the batch protocol; [mk_desc] is the
     single-operation shorthand. *)
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

  let drop_desc t ~self d =
    match t.pools with
    | Some { descs = Some dp; _ } -> Pool.release dp ~tid:self d
    | _ -> ()

  let retire_desc t ~self d =
    if d != t.idle_desc then
      match t.pools with
      | Some { descs = Some dp; _ } -> Pool.release dp ~tid:self d
      | _ -> ()

  let publish t ~tid d =
    match t.pools with
    | Some { descs = Some _; _ } ->
        retire_desc t ~self:tid (A.exchange t.state.(tid) d)
    | _ -> A.set t.state.(tid) d

  (* ------------------------------------------------------------------ *)
  (* Finishing helpers, shared by both paths                            *)
  (* ------------------------------------------------------------------ *)

  (* Kp_queue.help_finish_enq, extended with the fast-path case: a node
     with [enq_tid = -1] was appended by a bounded Michael-Scott attempt
     and has no descriptor — the only thing left to do is advance [tail]
     (the appender itself may have been preempted before its tail CAS). *)
  let help_finish_enq t ~self =
    let last = A.get t.tail in
    let next_o = A.get last.next in
    match next_o with
    | None -> ()
    | Some next ->
        let tid = next.enq_tid in
        if tid < 0 then ignore (A.compare_and_set t.tail last next)
        else begin
          assert (tid < t.num_threads);
          let cur_desc = A.get t.state.(tid) in
          (* Batch jump target from the {e fresh} descriptor read (the
             one validated against [next_o]) — a stale [cur_desc] only
             loses its completion CAS, but a stale [last_node] would
             teleport [tail]. See Kp_queue.help_finish_enq. *)
          let slot_desc = A.get t.state.(tid) in
          if last == A.get t.tail && slot_desc.node == next_o then begin
            let target =
              match slot_desc.last_node with Some l -> l | None -> next
            in
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

  (* Kp_queue.help_finish_deq, extended with the fast-path case: a
     sentinel claimed with [deq_tid >= num_threads] belongs to a
     fast-path dequeue — no descriptor to complete, only [head] to
     swing. *)
  let help_finish_deq t ~self =
    let first = A.get t.head in
    let next = A.get first.next in
    let tid = N.claimed_tid first in
    if tid >= t.num_threads then begin
      (* Fast-path claim. *)
      match next with
      | Some next_node when first == A.get t.head ->
          if A.compare_and_set t.head first next_node then
            release_node t ~self first
      | Some _ | None -> ()
    end
    else if tid <> -1 then begin
      let cur_desc = A.get t.state.(tid) in
      match next with
      | Some next_node when first == A.get t.head ->
          (if cur_desc.want > 0 then begin
             (* Batch-dequeue element transition, exactly as in
                Kp_queue.help_finish_deq: append the value by replacing
                the record, guarded on it still recording [first] so a
                stale helper's CAS fails (exactly-once). *)
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
          if A.compare_and_set t.head first next_node then
            release_node t ~self first
      | Some _ | None -> ()
    end

  (* ------------------------------------------------------------------ *)
  (* Slow path: Kp_queue's phase-based helping, verbatim modulo the      *)
  (* extended finishing helpers above                                    *)
  (* ------------------------------------------------------------------ *)

  let rec help_enq t ~self tid phase =
    if is_still_pending t tid phase then begin
      let last = A.get t.tail in
      let next = A.get last.next in
      if last == A.get t.tail then
        match next with
        | None ->
            if is_still_pending t tid phase then begin
              let node = (A.get t.state.(tid)).node in
              if A.compare_and_set last.next None node then
                help_finish_enq t ~self
              else help_enq t ~self tid phase
            end
            else help_enq t ~self tid phase
        | Some _ ->
            help_finish_enq t ~self;
            help_enq t ~self tid phase
      else help_enq t ~self tid phase
    end

  let rec help_deq t ~self tid phase =
    if is_still_pending t tid phase then begin
      let first = A.get t.head in
      (* Claim word captured together with the head reference — the
         epoch half is what makes the later claim CAS recycle-safe (see
         Kp_internals.try_claim). *)
      let claim0 = A.get first.deq_tid in
      let last = A.get t.tail in
      let next = A.get first.next in
      if first == A.get t.head then
        if first == last then begin
          match next with
          | None ->
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
              help_finish_enq t ~self;
              help_deq t ~self tid phase
        end
        else begin
          let cur_desc = A.get t.state.(tid) in
          let node = cur_desc.node in
          if is_still_pending t tid phase then begin
            let points_to_first =
              match node with Some n -> n == first | None -> false
            in
            if first == A.get t.head && not points_to_first then begin
              let new_desc =
                mk_desc t ~self ~phase:cur_desc.phase ~pending:true
                  ~enqueue:false ~node:(Some first)
              in
              if not (A.compare_and_set t.state.(tid) cur_desc new_desc)
              then begin
                drop_desc t ~self new_desc;
                help_deq t ~self tid phase
              end
              else begin
                retire_desc t ~self cur_desc;
                ignore (N.try_claim first ~observed:claim0 ~tid);
                help_finish_deq t ~self;
                help_deq t ~self tid phase
              end
            end
            else begin
              ignore (N.try_claim first ~observed:claim0 ~tid);
              help_finish_deq t ~self;
              help_deq t ~self tid phase
            end
          end
        end
      else help_deq t ~self tid phase
    end

  (* Batch dequeue driver (see Kp_queue.help_batch_deq): the help_deq
     claim loop iterated until the descriptor has [want] values or the
     queue empties; the per-element finish transition lives in
     [help_finish_deq]. Batch-specific guard: a sentinel already
     claimed by [tid] is a claim of this batch whose head swing has not
     landed — finish it before seeking, or its successor's value would
     be recorded twice. Fast-path claims ([num_threads + tid]) never
     collide with this check: slow batch claims use the plain tid. *)
  let rec help_batch_deq t ~self tid phase =
    if is_still_pending t tid phase then begin
      let first = A.get t.head in
      let claim0 = A.get first.deq_tid in
      let last = A.get t.tail in
      let next = A.get first.next in
      if first == A.get t.head then
        if N.claimed_tid first = tid then begin
          help_finish_deq t ~self;
          help_batch_deq t ~self tid phase
        end
        else if first == last then begin
          match next with
          | None ->
              (* Empty: complete the batch with its partial result. *)
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
          if is_still_pending t tid phase then begin
            let points_to_first =
              match node with Some n -> n == first | None -> false
            in
            if first == A.get t.head && not points_to_first then begin
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
                ignore (N.try_claim first ~observed:claim0 ~tid);
                help_finish_deq t ~self;
                help_batch_deq t ~self tid phase
              end
            end
            else begin
              ignore (N.try_claim first ~observed:claim0 ~tid);
              help_finish_deq t ~self;
              help_batch_deq t ~self tid phase
            end
          end
        end
      else help_batch_deq t ~self tid phase
    end

  (* The phase passed DOWN is the descriptor's own ([desc.phase]), as in
     the paper's help() (Fig. 2) — not the caller's bound. This is load-
     bearing here: a tid's phases strictly increase, so a helper that
     read the descriptor before the operation completed fails its
     [is_still_pending] re-check as soon as the tid publishes its next
     operation. Helping at the caller's (larger) bound would let a stale
     helper latch onto that next operation — possibly of the other kind,
     e.g. rewriting a pending enqueue descriptor through the dequeue
     helper, or re-appending a consumed node. The fast path's
     [maybe_help] helps at bound [max_int], which is only safe because
     of this. *)
  let help_slot t ~self i phase =
    let desc = A.get t.state.(i) in
    if desc.pending && desc.phase <= phase then begin
      let bound =
        match t.fault with
        | Some Stale_helper_caller_phase -> phase (* seeded bug *)
        | _ -> desc.phase
      in
      if desc.enqueue then help_enq t ~self i bound
      else if desc.want > 0 then help_batch_deq t ~self i bound
      else help_deq t ~self i bound
    end

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

  (* The fast path's helping duty: one atomic load per operation; only
     when some thread is on the slow path, run one cyclic helping round
     (to completion — help_enq/help_deq return only once the helped
     operation is no longer pending). The cursor advances every call, so
     a given pending operation is reached after at most [num_threads]
     operations of this thread: slow-path progress is bounded even if
     every other thread stays on the fast path forever. *)
  let maybe_help t ~tid =
    if A.get t.slow_pending > 0 then begin
      let i = tid * cursor_stride in
      let c = t.help_cursor.(i) in
      t.help_cursor.(i) <- (c + 1) mod t.num_threads;
      help_slot t ~self:tid c max_int
    end

  (* ------------------------------------------------------------------ *)
  (* Slow-path operations (entered after max_failures fast rounds)      *)
  (* ------------------------------------------------------------------ *)

  (* [node] was already allocated by the fast path and never published
     (every fast append CAS on it failed), so the slow path adopts it —
     rewriting [enq_tid] from the fast-path marker to the real tid is
     safe pre-publication — instead of allocating a second node. *)
  let slow_enqueue t ~tid node =
    Wfq_obsv.Counter.incr t.slow_entries ~slot:tid;
    (* Raise the flag before publishing so that any fast-path operation
       starting after our descriptor is visible also sees the flag. *)
    ignore (A.fetch_and_add t.slow_pending 1);
    let phase = next_phase t in
    node.N.enq_tid <- tid;
    publish t ~tid
      (mk_desc t ~self:tid ~phase ~pending:true ~enqueue:true
         ~node:(Some node));
    run_help t ~tid ~phase;
    help_finish_enq t ~self:tid;
    ignore (A.fetch_and_add t.slow_pending (-1));
    if t.tuning.gc_friendly then
      publish t ~tid
        (mk_desc t ~self:tid ~phase ~pending:false ~enqueue:true ~node:None)

  let slow_dequeue t ~tid =
    Wfq_obsv.Counter.incr t.slow_entries ~slot:tid;
    ignore (A.fetch_and_add t.slow_pending 1);
    let phase = next_phase t in
    publish t ~tid
      (mk_desc t ~self:tid ~phase ~pending:true ~enqueue:false ~node:None);
    run_help t ~tid ~phase;
    help_finish_deq t ~self:tid;
    ignore (A.fetch_and_add t.slow_pending (-1));
    let result =
      match (A.get t.state.(tid)).node with
      | None -> None
      | Some node -> (
          (* [node] may already be pool-released by the head winner;
             quarantine keeps it intact until our op_exit. *)
          match A.get node.next with
          | Some next ->
              assert (next.value <> None);
              next.value
          | None -> assert false)
    in
    if t.tuning.gc_friendly then
      publish t ~tid
        (mk_desc t ~self:tid ~phase ~pending:false ~enqueue:false ~node:None);
    result

  (* Slow-path batch enqueue: the fast path pre-linked the chain and
     failed to publish any of it, so the descriptor adopts it whole.
     Only the chain's first node gets the real tid — it is the only one
     that ever becomes [tail.next] before the jump (help_finish_enq
     moves [tail] straight to [last]); interior nodes keep the -1
     marker harmlessly. *)
  let slow_enqueue_batch t ~tid chain_first chain_last =
    Wfq_obsv.Counter.incr t.slow_entries ~slot:tid;
    ignore (A.fetch_and_add t.slow_pending 1);
    let phase = next_phase t in
    chain_first.N.enq_tid <- tid;
    publish t ~tid
      (mk_desc_b t ~self:tid ~phase ~pending:true ~enqueue:true
         ~last:(Some chain_last) ~want:0 ~got:0 ~taken:[]
         ~node:(Some chain_first));
    run_help t ~tid ~phase;
    help_finish_enq t ~self:tid;
    ignore (A.fetch_and_add t.slow_pending (-1));
    if t.tuning.gc_friendly then
      publish t ~tid
        (mk_desc t ~self:tid ~phase ~pending:false ~enqueue:true ~node:None)

  (* Slow-path batch dequeue for the remaining suffix of a batch whose
     fast rounds ran out: one descriptor with [want] drives
     [help_batch_deq] (owner and helpers alike). Returns the collected
     values in FIFO order, shorter than [want] iff the queue emptied. *)
  let slow_dequeue_batch t ~tid ~want =
    Wfq_obsv.Counter.incr t.slow_entries ~slot:tid;
    ignore (A.fetch_and_add t.slow_pending 1);
    let phase = next_phase t in
    publish t ~tid
      (mk_desc_b t ~self:tid ~phase ~pending:true ~enqueue:false
         ~last:None ~want ~got:0 ~taken:[] ~node:None);
    run_help t ~tid ~phase;
    help_finish_deq t ~self:tid;
    ignore (A.fetch_and_add t.slow_pending (-1));
    let taken = List.rev (A.get t.state.(tid)).taken in
    if t.tuning.gc_friendly then
      publish t ~tid
        (mk_desc t ~self:tid ~phase ~pending:false ~enqueue:false ~node:None);
    taken

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
    if failures >= t.max_failures then begin
      note_fast_rounds t ~tid failures;
      slow_enqueue t ~tid node
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
              Wfq_obsv.Counter.incr t.fast_hits ~slot:tid
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
    let node = alloc_node t ~self:tid ~enq_tid:(-1) value in
    fast_enqueue t ~tid node 0;
    op_exit t ~tid

  let rec fast_dequeue t ~tid failures =
    if failures >= t.max_failures then begin
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
                Wfq_obsv.Counter.incr t.fast_hits ~slot:tid;
                None
            | Some _ ->
                help_finish_enq t ~self:tid;
                fast_dequeue t ~tid (failures + 1)
          else
            match next with
            | None -> fast_dequeue t ~tid (failures + 1) (* transient view *)
            | Some n ->
                if t.fault = Some Fast_deq_no_claim then
                  (* Seeded bug: pure MS dequeue, no deq_tid claim — can
                     deliver an element a slow dequeue already owns. *)
                  if A.compare_and_set t.head first n then begin
                    Wfq_obsv.Counter.incr t.fast_hits ~slot:tid;
                    n.value
                  end
                  else fast_dequeue t ~tid (failures + 1)
                else if
                  (* Claim the sentinel with the fast-path marker; the
                     successful CAS is the linearization point — shared
                     with slow-path dequeues, which claim with their
                     tid. *)
                  N.try_claim first ~observed:claim0
                    ~tid:(t.num_threads + tid)
                then begin
                  let v = n.value in
                  if A.compare_and_set t.head first n then
                    release_node t ~self:tid first;
                  if failures > 0 then note_fast_rounds t ~tid (failures + 1);
                  Wfq_obsv.Counter.incr t.fast_hits ~slot:tid;
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
        let chain_first = alloc_node t ~self:tid ~enq_tid:(-1) v0 in
        let chain_last =
          List.fold_left
            (fun prev v ->
              let n = alloc_node t ~self:tid ~enq_tid:(-1) v in
              A.set prev.N.next (Some n);
              n)
            chain_first rest
        in
        (* Seeded Batch_partial_publish: sever the chain after its
           first node — the link CAS below then publishes one element
           while the caller believes all [k] went in. *)
        if t.fault = Some Batch_partial_publish then
          A.set chain_first.N.next None;
        let rec attempt failures cas =
          if failures >= t.max_failures then begin
            note_fast_rounds t ~tid failures;
            note_batch_cas t ~tid cas;
            slow_enqueue_batch t ~tid chain_first chain_last
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
                    Wfq_obsv.Counter.incr t.fast_hits ~slot:tid
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
        else if failures >= t.max_failures then begin
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
                  Wfq_obsv.Counter.incr t.fast_hits ~slot:tid;
                  List.rev acc
              | Some _ ->
                  help_finish_enq t ~self:tid;
                  go acc got (failures + 1) cas
            else
              match next with
              | None -> go acc got (failures + 1) cas (* transient view *)
              | Some nx ->
                  if
                    N.try_claim first ~observed:claim0
                      ~tid:(t.num_threads + tid)
                  then begin
                    let v1 =
                      match nx.N.value with
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
                        match A.get node.N.next with
                        | None -> (node, vs, m)
                        | Some nx2 ->
                            let v =
                              match nx2.N.value with
                              | Some v -> v
                              | None -> assert false
                            in
                            walk nx2 (v :: vs) (m + 1)
                    in
                    let last_node, extra_rev, m = walk nx [] 1 in
                    Wfq_obsv.Counter.incr t.fast_hits ~slot:tid;
                    if A.compare_and_set t.head first last_node then begin
                      (* The skipped nodes [first .. pred last_node] are
                         unreachable from [head] and claimed/covered by
                         us alone — read each [next] before releasing
                         its node. *)
                      let rec release_prefix node =
                        if node != last_node then begin
                          let nxt = A.get node.N.next in
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
  (* Observers (quiescent use)                                          *)
  (* ------------------------------------------------------------------ *)

  let to_list t = N.to_list t.head
  let length t = N.length t.head
  let is_empty t = N.is_empty t.head

  let check_quiescent_invariants t =
    match N.check_list_invariants ~head:t.head ~tail:t.tail with
    | Error _ as e -> e
    | Ok () ->
        let pending_slots =
          Array.to_list t.state
          |> List.filteri (fun _ slot -> (A.get slot).pending)
        in
        if pending_slots <> [] then
          Error
            (Printf.sprintf "%d state slots still pending at quiescence"
               (List.length pending_slots))
        else if A.get t.slow_pending <> 0 then
          Error
            (Printf.sprintf "slow_pending = %d at quiescence"
               (A.get t.slow_pending))
        else Ok ()

  (* ------------------------------------------------------------------ *)
  (* White-box probes (tests)                                           *)
  (* ------------------------------------------------------------------ *)

  let max_failures t = t.max_failures
  let fast_path_hits_of t ~tid = Wfq_obsv.Counter.slot_value t.fast_hits ~slot:tid
  let slow_path_entries_of t ~tid =
    Wfq_obsv.Counter.slot_value t.slow_entries ~slot:tid
  let fast_path_hits t = Wfq_obsv.Counter.total t.fast_hits
  let slow_path_entries t = Wfq_obsv.Counter.total t.slow_entries
  let pending_of t ~tid = (A.get t.state.(tid)).pending
  let phase_of t ~tid = (A.get t.state.(tid)).phase

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

  let debug_dump t =
    let head = A.get t.head and tail = A.get t.tail in
    let node_id (n : 'a node) = Hashtbl.hash n in
    Printf.printf "head=%d (deq_tid=%d) tail=%d tail.next=%s\n"
      (node_id head) (N.claimed_tid head) (node_id tail)
      (match A.get tail.next with
      | None -> "None"
      | Some n ->
          Printf.sprintf "Some %d (enq_tid=%d, deq_tid=%d)" (node_id n)
            n.enq_tid (N.claimed_tid n));
    Printf.printf "head==tail: %b; slow_pending=%d\n" (head == tail)
      (A.get t.slow_pending);
    Array.iteri
      (fun tid slot ->
        let d = A.get slot in
        Printf.printf
          "tid %d: pending=%b enq=%b phase=%d node=%s fast=%d slow=%d\n" tid
          d.pending d.enqueue d.phase
          (match d.node with
          | None -> "None"
          | Some n -> Printf.sprintf "Some %d" (node_id n))
          (Wfq_obsv.Counter.slot_value t.fast_hits ~slot:tid)
          (Wfq_obsv.Counter.slot_value t.slow_entries ~slot:tid))
      t.state;
    let rec walk i n =
      if i < 8 then begin
        Printf.printf "  list[%d]: node %d enq_tid=%d deq_tid=%d%s%s\n" i
          (node_id n) n.enq_tid (N.claimed_tid n)
          (if n == head then " <-head" else "")
          (if n == tail then " <-tail" else "");
        match A.get n.next with None -> () | Some nx -> walk (i + 1) nx
      end
    in
    walk 0 head

  (* Attach the always-on path counters (and, when pooled, the pools'
     counters and gauges) to a metrics registry. The optional [?obsv]
     handle registers itself at construction; this covers the rest. *)
  let register_metrics t registry ~prefix =
    let open Wfq_obsv in
    Metrics.gauge registry ~name:(prefix ^ ".depth") (fun () -> length t);
    Metrics.register registry (prefix ^ ".fast_hits")
      (Metrics.Counter t.fast_hits);
    Metrics.register registry (prefix ^ ".slow_entries")
      (Metrics.Counter t.slow_entries);
    match t.pools with
    | None -> ()
    | Some p ->
        Pool.register_metrics p.nodes registry ~prefix:(prefix ^ ".nodes");
        (match p.descs with
        | Some dp ->
            Pool.register_metrics dp registry ~prefix:(prefix ^ ".descs")
        | None -> ())
end
