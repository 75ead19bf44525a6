(** Regeneration of every figure in the paper's evaluation section (§4),
    shared between [bench/main.exe] and [bin/wfq_bench.exe]. See
    EXPERIMENTS.md for paper-vs-measured commentary. *)

type scale = {
  threads : int list;  (** x axis of figs. 7-9 *)
  iters : int;  (** iterations per thread *)
  runs : int;  (** repetitions averaged per data point *)
  sizes : int list;  (** x axis of fig. 10 (initial queue size) *)
}

val quick : scale
(** Container-friendly default preserving the paper's shapes. *)

val paper : scale
(** The paper's parameters: 1..16 threads, 1M iterations, 10 runs,
    queue sizes 10^0..10^7. *)

(** {2 Series}

    Each figure's lines, as queues under test: registry specs
    ({!Workload.spec}) labelled with the paper's legends, plus the
    hand-built shard front-end and universal construction. The labels
    are the committed [BENCH_*.json] series labels. *)

val lf : Workload.queue
(** ["lf"], "LF": the Michael-Scott lock-free baseline. *)

val wf_base : Workload.queue
(** ["kp-opt12?help=all&phase=scan"], "base WF". *)

val wf_opt12 : Workload.queue
(** ["kp-opt12"], "opt WF (1+2)". *)

val fig7_series : Workload.queue list
(** Figs. 7 and 8: LF, base WF, opt WF (1+2). *)

val fig9_series : Workload.queue list
(** Fig. 9: base WF, opt WF (1+2), opt WF (1), opt WF (2). *)

val extended_series : Workload.queue list
(** Every registered entry, LF pooled (["lf?pool=true"]), the partial
    optimizations and the universal construction. *)

val shard_series : Workload.queue list
(** opt WF (1+2) vs the sharded front-end at 1/2/4/8 shards (tid-affine)
    and 8 shards round-robin. *)

val fps_series : Workload.queue list
(** LF, base WF, opt WF (1+2), WF fps, WF fps pooled, and the
    max_failures sweep 1/8/64/1024. *)

val alloc_series : Workload.queue list
(** LF, opt WF (1+2) and WF fps, each next to its pooled counterpart. *)

val ring_series : Workload.queue list
(** opt WF (1+2), its pooled counterpart, WF fps pooled and the
    8192-slot ring. *)

val polylog_series : Workload.queue list
(** opt WF (1+2), WF fps pooled, WF polylog. *)

val batch_series : Workload.queue list
(** "WF fps per-item" ({!Workload.per_item} over fps-pooled) vs the
    native batches of fps-pooled, kp-opt12, the ring and the 4-shard
    round-robin front-end. *)

val ablation_series : Workload.queue list
(** opt WF (1+2), helping chunks of 2 and 4, and the tuning
    enhancements. *)

type with_gc = {
  time : Report.series list;  (** seconds — the figure itself *)
  minor_gcs : Report.series list;
      (** stop-the-world minor collections per run, projected from the
          same measurements (no re-running) *)
}
(** A figure together with its GC column. *)

val fig7 : ?scale:scale -> unit -> Report.series list
(** Enqueue-dequeue pairs: completion time vs threads for LF, base WF,
    opt WF (1+2). *)

val fig7_gc : ?scale:scale -> unit -> with_gc
(** {!fig7} with the minor-collection counts of the same runs. *)

val fig8 : ?scale:scale -> unit -> Report.series list
(** 50% enqueues: same series over the randomized workload. *)

val fig8_gc : ?scale:scale -> unit -> with_gc

val fig9 : ?scale:scale -> unit -> Report.series list
(** Optimization ablation: base WF vs opt (1), opt (2), opt (1+2). *)

val fig9_gc : ?scale:scale -> unit -> with_gc

val fig10 : ?scale:scale -> unit -> Report.series list
(** Live-space ratio (wait-free / lock-free) vs initial queue size. *)

val extended_pairs : ?scale:scale -> unit -> Report.series list
(** Extension: every queue in {!extended_series} on the pairs
    benchmark. *)

val shard_scaling : ?scale:scale -> unit -> Report.series list
(** Extension (lib/shard): opt WF (1+2) vs the sharded front-end at
    1/2/4/8 shards on the relaxed enqueue-dequeue-pairs workload. *)

val fps_scaling : ?scale:scale -> unit -> Report.series list
(** Extension (Kp_queue_fps): LF, base WF, opt WF (1+2), WF fps
    (unpooled and pooled) and the max_failures sweep on the strict
    enqueue-dequeue-pairs workload. *)

val fps_scaling_gc : ?scale:scale -> unit -> with_gc
(** {!fps_scaling} with the minor-collection counts of the same runs. *)

type alloc_report = {
  words_per_op : Report.series list;
      (** minor-heap words allocated per operation *)
  promoted_per_op : Report.series list;
      (** words promoted to the major heap per operation *)
  minor_collections : Report.series list;
  major_collections : Report.series list;
}
(** The allocation-rate decomposition — four projections of one
    interleaved measurement over {!alloc_series}. *)

val alloc_decomposition : ?scale:scale -> unit -> alloc_report
(** Extension ([wfq_bench alloc]): allocation rate and induced GC work
    of each family's headline member vs its segment-pooled counterpart,
    on the enqueue-dequeue-pairs workload (medians over interleaved
    repetitions). *)

type ring_report = {
  ring_time : Report.series list;  (** seconds, pairs workload *)
  ring_words_per_op : Report.series list;
      (** minor-heap words per operation — the CI guard's series *)
  ring_minor_gcs : Report.series list;
}
(** The ring decomposition — three projections of one interleaved
    measurement over {!ring_series}. *)

val ring_decomposition : ?scale:scale -> unit -> ring_report
(** Extension ([wfq_bench ring]): the bounded ring vs opt WF (1+2),
    its pooled counterpart and WF fps pooled on the strict pairs
    workload (medians over interleaved repetitions). *)

type batch_report = {
  batch_time : Report.series list;  (** seconds, batch pairs workload *)
  batch_minor_gcs : Report.series list;
}
(** The batch decomposition — two projections of one interleaved
    measurement over {!batch_series}. *)

val batch_decomposition : ?scale:scale -> batch:int -> unit -> batch_report
(** Extension ([wfq_bench figures --batch k], docs/BATCHING.md): the
    per-item fps baseline vs the batch-native backends on the batch
    pairs workload at batch size [batch]. Equal element volume per run,
    so time ratios are amortization factors; "WF fps per-item" over
    "WF fps batch" is the CI guard's ratio (>= 2 at [batch] = 64). *)

val polylog_crossover_gc : ?scale:scale -> unit -> with_gc
(** Extension ([wfq_bench polylog]): the helping-cost crossover — opt
    WF (1+2) and WF fps pooled (O(p)-step helping scans) vs the
    polylog tournament-tree queue (O(log{^ 2} p) steps/op) on the
    strict pairs workload. The matching certified step-bound-vs-p
    table is built by the bench driver from {!Wfq_sim.Check.certify}
    certificates, not here (the harness stays simulator-free). *)

val all_figures : ?scale:scale -> unit -> Report.series list
(** Every paper figure in one dataset, labels prefixed "figN:". Fig. 10
    points use queue size as x; the rest use threads. *)

val ablation : ?scale:scale -> unit -> Report.series list
(** Extension: helping-chunk size and tuning enhancements (§3.3 design
    knobs the paper describes but does not evaluate). *)

val print_fig : title:string -> y_label:string -> Report.series list -> unit
val print_fig10 : Report.series list -> unit
