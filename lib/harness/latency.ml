(* Per-operation latency measurement across domains.

   All timestamps come from Clock.now_ns (CLOCK_MONOTONIC): the
   previous Unix.gettimeofday version could hand a timed window a
   backwards NTP step — a negative "latency" — and resolved only
   microseconds. Enqueue and dequeue are timed separately: the two
   operations have different helping structure (an enqueue never waits
   for elements; a dequeue's fast path races the emptiness check), so
   one fused "pair" number hid which side owned the tail. Closed-loop
   caveat: each thread fires as fast as the previous op returns, so
   these numbers measure service time under self-throttled load — for
   queueing delay at an offered load use Open_loop (docs/LATENCY.md). *)

type dist = { p50 : float; p99 : float; p999 : float; max : float }

type summary = {
  enqueue : dist;
  dequeue : dist;
  samples : int;
  minor_collections : int;
}

let dist_of samples_ns n =
  let f = Array.init n (fun i -> float_of_int samples_ns.(i) /. 1e3) in
  match Wfq_primitives.Stats.percentiles_in_place f [ 50.0; 99.0; 99.9; 100.0 ]
  with
  | [ p50; p99; p999; max ] -> { p50; p99; p999; max }
  | _ -> assert false

let measure ?(threads = 4) ?(iters = 10_000) (queue : Workload.queue) =
  if threads <= 0 || iters <= 0 then invalid_arg "Latency.measure";
  Gc.full_major ();
  let q = queue.make ~num_threads:threads in
  let barrier = Barrier.create (threads + 1) in
  let n = threads * iters in
  let enq_ns = Array.make n 0 in
  let deq_ns = Array.make n 0 in
  let worker tid () =
    Barrier.wait barrier;
    for i = 0 to iters - 1 do
      let t0 = Clock.now_ns () in
      q.enq ~tid i;
      let t1 = Clock.now_ns () in
      ignore (q.deq ~tid);
      let t2 = Clock.now_ns () in
      (* CLOCK_MONOTONIC is non-decreasing by contract; a negative
         delta means the clock source regressed to something steppable
         and every sample is suspect — fail the measurement loudly. *)
      if t1 < t0 || t2 < t1 then
        failwith "Latency.measure: non-monotonic clock sample";
      enq_ns.((tid * iters) + i) <- t1 - t0;
      deq_ns.((tid * iters) + i) <- t2 - t1
    done
  in
  let domains = List.init threads (fun tid -> Domain.spawn (worker tid)) in
  Barrier.wait barrier;
  (* Minor collections are stop-the-world events: every one inside the
     measured window is a latency spike shared by all domains, so the
     count contextualizes the tail percentiles (a p999 dominated by GC
     pauses is an allocation-rate problem, not a queue-algorithm one). *)
  let g0 = (Gc.quick_stat ()).Gc.minor_collections in
  List.iter Domain.join domains;
  let g1 = (Gc.quick_stat ()).Gc.minor_collections in
  {
    enqueue = dist_of enq_ns n;
    dequeue = dist_of deq_ns n;
    samples = n;
    minor_collections = g1 - g0;
  }
