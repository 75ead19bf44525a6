(** Live-space measurement (paper Figure 10).

    The paper samples the GC's live-object statistics while the
    enqueue-dequeue benchmark runs over queues of growing initial size,
    and reports the wait-free/lock-free footprint ratio. Our equivalent
    of Java's [-verbose:gc] sampling is [Gc.full_major] followed by
    [Gc.stat ()].live_words, which counts exactly the live heap. *)

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

(* Words of the closure record a {!Workload.queue} hands out: the
   record block and the closure block of each operation, all freshly
   allocated around the queue. They are the harness's view of the
   queue, not part of it, so {!footprint} leaves them out. *)
let instance_words (q : int Wfq_core.Queue_intf.instance) =
  let r = Obj.repr q in
  let closure_words k =
    let f = Obj.field r k in
    if Obj.is_block f && Obj.tag f = Obj.closure_tag then Obj.size f + 1 else 0
  in
  List.fold_left ( + ) (Obj.size r + 1) (List.init (Obj.size r) closure_words)

(** Heap words attributable to a queue of [size] elements: live words
    with it minus live words once it is dropped, less the closure
    record it is reached through. The queue is kept alive across the
    first measurement via [Sys.opaque_identity]. The heaps of domains
    that exited shortly before are swept lazily, so the heap is
    collected once before the queue is built and the baseline is read
    last: a baseline read first can include words that are gone by the
    time the queue is measured. *)
let footprint (queue : Workload.queue) ~size =
  ignore (live_words () : int);
  let q = queue.make ~num_threads:8 in
  for i = 1 to size do
    q.enq ~tid:0 i
  done;
  let with_queue = live_words () in
  let wrapper = instance_words (Sys.opaque_identity q) in
  with_queue - live_words () - wrapper

(** Footprint sampled during activity, closer to the paper's methodology:
    fill to [size], then run one thread of enqueue-dequeue pairs and
    sample live words mid-run. Single-domain sampling (the sampler is the
    worker), which keeps the measurement deterministic. *)
let footprint_active (queue : Workload.queue) ~size ~iters ~samples =
  let before = live_words () in
  let q = queue.make ~num_threads:8 in
  for i = 1 to size do
    q.enq ~tid:0 i
  done;
  let acc = ref 0 in
  let sample_every = max 1 (iters / samples) in
  let taken = ref 0 in
  for i = 1 to iters do
    q.enq ~tid:0 (size + i);
    ignore (q.deq ~tid:0);
    if i mod sample_every = 0 && !taken < samples then begin
      acc := !acc + (live_words () - before);
      incr taken
    end
  done;
  ignore (Sys.opaque_identity q);
  if !taken = 0 then live_words () - before else !acc / !taken
