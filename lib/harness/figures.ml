(** Regeneration of every figure in the paper's evaluation section (§4).

    Each function returns {!Report.series} data — the numbers behind the
    corresponding line plot — and is shared between [bench/main.exe]
    (one-shot regeneration of everything) and [bin/wfq_bench.exe]
    (parameterized CLI).

    Scaling: the paper runs 1,000,000 iterations per thread over 1..16
    threads on 8-core machines, ten repetitions per point. The default
    {!quick} scale keeps the same shape at container-friendly cost;
    {!paper} restores the paper's parameters. *)

type scale = {
  threads : int list;  (** x axis of figs. 7-9 *)
  iters : int;  (** iterations per thread *)
  runs : int;  (** repetitions averaged per data point *)
  sizes : int list;  (** x axis of fig. 10 (initial queue size) *)
}

let quick =
  {
    threads = [ 1; 2; 4; 8; 16 ];
    iters = 10_000;
    runs = 3;
    sizes = [ 1; 10; 100; 1_000; 10_000; 100_000 ];
  }

let paper =
  {
    threads = List.init 16 (fun i -> i + 1);
    iters = 1_000_000;
    runs = 10;
    sizes = [ 1; 10; 100; 1_000; 10_000; 100_000; 1_000_000; 10_000_000 ];
  }

(** Time and GC activity extracted from the same runs: every run already
    carries its [Workload.gc_stats], so the GC columns of a figure cost
    nothing extra — projecting twice from one collection, never
    re-running. *)
type with_gc = {
  time : Report.series list;  (** seconds (the figure itself) *)
  minor_gcs : Report.series list;
      (** stop-the-world minor collections per run — the GC column *)
}

(* --- the series: one (label, spec) per line of a figure ----------- *)

(* Every figure line is a registry spec ({!Workload.spec}); the label
   is the paper's legend where it differs from the entry's own. Only
   the shard front-end and the int-only universal construction are
   built by hand. *)

let spec = Workload.spec
let lf = spec "lf"
let wf_base = spec ~label:"base WF" "kp-opt12?help=all&phase=scan"
let wf_opt1 = spec ~label:"opt WF (1)" "kp-opt12?phase=scan"
let wf_opt2 = spec ~label:"opt WF (2)" "kp-opt12?help=all"
let wf_opt12 = spec "kp-opt12"
let wf_pooled = spec "kp-opt12-pooled"
let wf_fps = spec "fps"
let wf_fps_pooled = spec "fps-pooled"

(* 8192 slots: far above the pairs workload's peak depth ([threads]). *)
let ring_8192 = "ring?capacity=8192"

module RA = Wfq_primitives.Real_atomic
module Sh = Wfq_shard.Shard.Make (RA)
module Uq = Wfq_universal.Universal.Queue (RA)

let shard label ~policy k : Workload.queue =
  {
    label;
    make =
      (fun ~num_threads ->
        Sh.instance (Sh.create ~policy ~shards:k ~num_threads ()));
  }

(* Herlihy's universal construction is int-only, so it is no registry
   entry; [Workload.per_item] supplies its batch operations. *)
let universal : Workload.queue =
  let no_batch ~tid:_ _ = invalid_arg "universal: batches come from per_item" in
  {
    label = "WF universal";
    make =
      (fun ~num_threads ->
        let q = Uq.create ~num_threads () in
        Workload.per_item
          {
            Wfq_core.Queue_intf.i_name = Uq.name;
            enq = Uq.enqueue q;
            try_enq =
              (fun ~tid v ->
                Uq.enqueue q ~tid v;
                true);
            deq = Uq.dequeue q;
            enq_batch = no_batch;
            try_enq_batch = no_batch;
            deq_batch = (fun ~tid ~n:_ -> no_batch ~tid ());
            size = (fun () -> Uq.length q);
            empty = (fun () -> Uq.is_empty q);
            dump = (fun () -> Uq.to_list q);
            check = (fun () -> Ok ());
            metrics = (fun _ ~prefix:_ -> ());
          });
  }

let fig7_series = [ lf; wf_base; wf_opt12 ]
let fig9_series = [ wf_base; wf_opt12; wf_opt1; wf_opt2 ]

(* Every registered entry, the pooled LF queue, the paper's partial
   optimizations and the universal construction. The ring runs at 8192
   slots: the registry's 1024 are fewer than the 50%-enqueues
   workload's prefill plus drift. *)
let lf_pooled = spec ~label:"LF pooled" "lf?pool=true"

let extended_series =
  [ wf_base; wf_opt1; wf_opt2 ]
  @ List.concat_map
      (function
        | "ring" -> [ spec ~label:"WF ring" ring_8192 ]
        | "lf" -> [ lf; lf_pooled ]
        | id -> [ spec id ])
      (Wfq_core.Backends.ids ())
  @ [ universal ]

(* The best unsharded variant against the front-end at growing shard
   counts (shard-1 measures the strict mode's overhead, which should be
   nil). The headline rows use the tid-affine policy: on the pairs
   workload a thread's dequeue starts at the shard its enqueue just
   fed; the round-robin ticket policy is kept as a labelled variant. *)
let shard_series =
  wf_opt12
  :: List.map
       (fun k ->
         shard (Printf.sprintf "WF shard-%d" k) ~policy:Wfq_shard.Shard.Tid_affine k)
       [ 1; 2; 4; 8 ]
  @ [ shard "WF shard-8 (rr)" ~policy:Wfq_shard.Shard.Round_robin 8 ]

(* The acceptance baselines (raw LF, base WF, best unsharded WF), the
   fps queue unpooled and pooled, and the fast-path budget sweep. *)
let fps_series =
  [ lf; wf_base; wf_opt12; wf_fps; wf_fps_pooled ]
  @ List.map
      (fun k ->
        spec ~label:(Printf.sprintf "WF fps mf=%d" k) (Printf.sprintf "fps?mf=%d" k))
      [ 1; 8; 64; 1024 ]

(* Each family's headline member next to its pooled counterpart, so
   the words/op delta isolates what segment-pool recycling saves. *)
let alloc_series =
  [
    lf; lf_pooled; wf_opt12; wf_pooled; wf_fps; wf_fps_pooled;
  ]

(* The ring against the linked queues' allocation floor (the pooled
   members) and the throughput baseline. *)
let ring_series =
  [ wf_opt12; wf_pooled; wf_fps_pooled; spec ~label:"WF ring" ring_8192 ]

(* The paper's fastest O(p) queue, the lowest-allocation O(p) variant,
   and the O(log^2 p) tree. *)
let polylog_series = [ wf_opt12; wf_fps_pooled; spec "polylog" ]

(* The per-item fps baseline against the batch-native backends. Both
   fps rows run the pooled configuration (the family's headline), so
   the ratio isolates what batching amortizes — the per-element CAS
   protocol — rather than the allocator. *)
let batch_series =
  [
    {
      Workload.label = "WF fps per-item";
      make =
        (fun ~num_threads -> Workload.per_item (wf_fps_pooled.make ~num_threads));
    };
    spec ~label:"WF fps batch" "fps-pooled";
    spec ~label:"opt WF (1+2) batch" "kp-opt12";
    spec ~label:"WF ring batch" ring_8192;
    shard "WF shard-4 (rr) batch" ~policy:Wfq_shard.Shard.Round_robin 4;
  ]

(* Helping-chunk size sweep plus the tuning enhancements. *)
let ablation_series =
  [
    wf_opt12;
    spec ~label:"WF chunk-2" "kp-opt12?help=chunk-2";
    spec ~label:"WF chunk-4" "kp-opt12?help=chunk-4";
    spec ~label:"WF tuned" "kp-opt12?tuned=true";
  ]

(* --- collection ---------------------------------------------------- *)

let series_from ~scale (queues : Workload.queue array) per_threads ~aggregate
    ~project =
  Array.to_list
    (Array.mapi
       (fun i (q : Workload.queue) ->
         {
           Report.label = q.label;
           points =
             List.map2
               (fun threads (samples : Workload.run_result list array) ->
                 (float_of_int threads, aggregate (List.map project samples.(i))))
               scale.threads per_threads;
         })
       queues)

let seconds (r : Workload.run_result) = r.Workload.seconds

let minor_gcs_of (r : Workload.run_result) =
  float_of_int r.Workload.gc.Workload.minor_collections

let completion_series_gc ~scale ~workload impls =
  let impls = Array.of_list impls in
  let per_threads =
    List.map
      (fun threads ->
        Array.map
          (fun impl ->
            List.init scale.runs (fun _ ->
                workload impl ~threads ~iters:scale.iters ()))
          impls)
      scale.threads
  in
  let mk project =
    series_from ~scale impls per_threads ~aggregate:Wfq_primitives.Stats.mean
      ~project
  in
  { time = mk seconds; minor_gcs = mk minor_gcs_of }

(** Figure 7: enqueue-dequeue pairs — completion time vs thread count for
    the lock-free baseline, the base wait-free queue and the fully
    optimized wait-free queue. *)
let fig7_gc ?(scale = quick) () =
  completion_series_gc ~scale
    ~workload:(fun impl ~threads ~iters () ->
      Workload.pairs impl ~threads ~iters ())
    fig7_series

let fig7 ?scale () = (fig7_gc ?scale ()).time

(** Figure 8: 50% enqueues — same series over the randomized workload
    with a 1000-element prefill. *)
let fig8_gc ?(scale = quick) () =
  completion_series_gc ~scale
    ~workload:(fun impl ~threads ~iters () ->
      Workload.p_enq impl ~threads ~iters ())
    fig7_series

let fig8 ?scale () = (fig8_gc ?scale ()).time

(** Figure 9: the impact of each §3.3 optimization in isolation, on the
    enqueue-dequeue benchmark. *)
let fig9_gc ?(scale = quick) () =
  completion_series_gc ~scale
    ~workload:(fun impl ~threads ~iters () ->
      Workload.pairs impl ~threads ~iters ())
    fig9_series

let fig9 ?scale () = (fig9_gc ?scale ()).time

(** Figure 10: live-space overhead of the wait-free queues relative to
    the lock-free one, as a function of the initial queue size. *)
let fig10 ?(scale = quick) () =
  let ratio impl size =
    let wf = Space.footprint impl ~size in
    let lf = Space.footprint lf ~size in
    float_of_int wf /. float_of_int lf
  in
  [
    {
      Report.label = "base WF / LF";
      points =
        List.map
          (fun s -> (float_of_int s, ratio wf_base s))
          scale.sizes;
    };
    {
      Report.label = "opt WF (1+2) / LF";
      points =
        List.map
          (fun s -> (float_of_int s, ratio wf_opt12 s))
          scale.sizes;
    };
  ]

(** Extension (not in the paper): the full baseline field on the pairs
    benchmark, including the blocking queues, the HP-reclaiming wait-free
    queue, and both partial optimizations. *)
let extended_pairs ?(scale = quick) () =
  (completion_series_gc ~scale
     ~workload:(fun impl ~threads ~iters () ->
       Workload.pairs impl ~threads ~iters ())
     extended_series)
    .time

(* Like {!completion_series_gc}, but the repetitions of all series are
   interleaved in rotating order instead of completing one series before
   starting the next. Sequential completion biases later series: heap
   and allocator state accumulated by earlier measurements (major-heap
   growth, domain bookkeeping) inflates later ones by more than the
   differences under study. Rotation makes every series occupy every
   position in the round equally often. Points are per-series medians
   rather than means: on small single-core hosts the dominant noise is
   multiplicative interference spikes (scheduler, co-tenants), which a
   mean smears over whichever series they happened to hit. *)
let interleaved_collect ~scale ~workload impls =
  let k = Array.length impls in
  List.map
    (fun threads ->
      let samples = Array.make k [] in
      for run = 0 to scale.runs - 1 do
        for j = 0 to k - 1 do
          let i = (run + j) mod k in
          let s = workload impls.(i) ~threads ~iters:scale.iters () in
          samples.(i) <- s :: samples.(i)
        done
      done;
      samples)
    scale.threads

let interleaved_series_gc ~scale ~workload impls =
  let impls = Array.of_list impls in
  let per_threads = interleaved_collect ~scale ~workload impls in
  let mk project =
    series_from ~scale impls per_threads
      ~aggregate:Wfq_primitives.Stats.median ~project
  in
  { time = mk seconds; minor_gcs = mk minor_gcs_of }

(** Extension (lib/shard): shard-count scaling of the sharded front-end
    against the best unsharded variant, on the enqueue-dequeue-pairs
    workload. Uses the relaxed pairs variant — identical per-operation
    work, but a [None] from a non-atomic shard sweep is retried rather
    than treated as impossible — and interleaved repetitions so that
    run-order heap effects do not bias the comparison. *)
let shard_scaling ?(scale = quick) () =
  (interleaved_series_gc ~scale
     ~workload:(fun impl ~threads ~iters () ->
       Workload.pairs_relaxed impl ~threads ~iters ())
     shard_series)
    .time

(** Extension (Kp_queue_fps): the fast-path/slow-path queue against the
    acceptance baselines (raw LF, base WF, best unsharded WF) plus the
    max_failures sweep, on the strict enqueue-dequeue-pairs workload —
    the fps queue is strict FIFO, so the "impossible empty" invariant
    holds and doubles as a correctness check on every measurement.
    Interleaved repetitions, as for {!shard_scaling}. *)
let fps_scaling_gc ?(scale = quick) () =
  interleaved_series_gc ~scale
    ~workload:(fun impl ~threads ~iters () ->
      Workload.pairs impl ~threads ~iters ())
    fps_series

let fps_scaling ?scale () = (fps_scaling_gc ?scale ()).time

(** Extension (Polylog_queue, [wfq_bench polylog]): the helping-cost
    crossover — the KP family's headliners (O(p)-step helping scans)
    vs the polylog tournament-tree queue (O(log² p) steps per op) on
    the strict enqueue-dequeue-pairs workload. Interleaved repetitions,
    as for {!shard_scaling}. The asymptotic half of the crossover story
    (the certified step-bound-vs-p table) comes from
    [Wfq_sim.Check.certify] in the bench driver — the harness itself
    never loads the simulator. *)
let polylog_crossover_gc ?(scale = quick) () =
  interleaved_series_gc ~scale
    ~workload:(fun impl ~threads ~iters () ->
      Workload.pairs impl ~threads ~iters ())
    polylog_series

(** Allocation-rate decomposition (the [wfq_bench alloc] dataset): each
    family's headline member next to its pooled counterpart on the
    enqueue-dequeue-pairs workload, interleaved repetitions, per-series
    medians. Allocation counts are near-deterministic per run (unlike
    times), so the medians are tight; repetitions mostly guard against
    helping-path variance. *)
type alloc_report = {
  words_per_op : Report.series list;
  promoted_per_op : Report.series list;
  minor_collections : Report.series list;
  major_collections : Report.series list;
}

let alloc_decomposition ?(scale = quick) () =
  let impls = Array.of_list alloc_series in
  let per_threads =
    interleaved_collect ~scale
      ~workload:(fun impl ~threads ~iters () ->
        Workload.pairs impl ~threads ~iters ())
      impls
  in
  let mk project =
    series_from ~scale impls per_threads
      ~aggregate:Wfq_primitives.Stats.median
      ~project:(fun r -> project (Space.profile_of_result r))
  in
  {
    words_per_op = mk (fun p -> p.Space.words_per_op);
    promoted_per_op = mk (fun p -> p.Space.promoted_per_op);
    minor_collections = mk (fun p -> float_of_int p.Space.minor_collections);
    major_collections = mk (fun p -> float_of_int p.Space.major_collections);
  }

(** Ring decomposition (the [wfq_bench ring] dataset): the bounded ring
    against the linked families' pooled floor on the strict pairs
    workload — completion time, words/op and minor collections
    projected from one interleaved collection. The words/op series is
    the CI guard's data source (the ring must allocate strictly less
    than "opt WF (1+2) pooled" at every thread count: its steady state
    allocates nothing, so any regression is a protocol change). *)
type ring_report = {
  ring_time : Report.series list;
  ring_words_per_op : Report.series list;
  ring_minor_gcs : Report.series list;
}

let ring_decomposition ?(scale = quick) () =
  let impls = Array.of_list ring_series in
  let per_threads =
    interleaved_collect ~scale
      ~workload:(fun impl ~threads ~iters () ->
        Workload.pairs impl ~threads ~iters ())
      impls
  in
  let mk project =
    series_from ~scale impls per_threads
      ~aggregate:Wfq_primitives.Stats.median ~project
  in
  {
    ring_time = mk seconds;
    ring_words_per_op =
      mk (fun r -> (Space.profile_of_result r).Space.words_per_op);
    ring_minor_gcs = mk minor_gcs_of;
  }

(** Batch decomposition (the [wfq_bench figures --batch k] dataset): the
    per-item fps baseline against the batch-native backends on the batch
    pairs workload — same element volume per run, so the time ratio is
    the amortization factor directly. The "WF fps per-item" vs "WF fps
    batch" pair is the CI guard's data source (native batches at k = 64
    must complete in at most half the per-item time — one descriptor
    publication covering the whole batch is the tentpole's headline).
    Interleaved repetitions, per-series medians, as for the other
    decompositions. *)
type batch_report = {
  batch_time : Report.series list;
  batch_minor_gcs : Report.series list;
}

let batch_decomposition ?(scale = quick) ~batch () =
  let impls = Array.of_list batch_series in
  let per_threads =
    interleaved_collect ~scale
      ~workload:(fun impl ~threads ~iters () ->
        Workload.pairs_batch impl ~threads ~iters ~batch ())
      impls
  in
  let mk project =
    series_from ~scale impls per_threads ~aggregate:Wfq_primitives.Stats.median
      ~project
  in
  { batch_time = mk seconds; batch_minor_gcs = mk minor_gcs_of }

(** One combined dataset of every paper figure, each series label
    prefixed with its figure ("fig7:LF", ...). Points keep their native
    x axis — threads for figs. 7-9, initial queue size for fig. 10 — so
    consumers must split by prefix before plotting. *)
let all_figures ?(scale = quick) () =
  let prefix p =
    List.map (fun s -> { s with Report.label = p ^ ":" ^ s.Report.label })
  in
  prefix "fig7" (fig7 ~scale ())
  @ prefix "fig8" (fig8 ~scale ())
  @ prefix "fig9" (fig9 ~scale ())
  @ prefix "fig10" (fig10 ~scale ())

(** Ablation of the §3.3 design knobs the paper describes but does not
    evaluate: helping-chunk size (1 = the paper's optimization 1) and the
    tuning enhancements (descriptor reset + pre-CAS validation). *)
let ablation ?(scale = quick) () =
  (completion_series_gc ~scale
     ~workload:(fun impl ~threads ~iters () ->
       Workload.pairs impl ~threads ~iters ())
     ablation_series)
    .time

let print_fig ~title ~y_label series =
  Report.print_table ~title ~x_label:"threads" ~y_label series

let print_fig10 series =
  Report.print_table ~title:"Figure 10: live space overhead (WF / LF)"
    ~x_label:"queue size" ~y_label:"live-words ratio" series
