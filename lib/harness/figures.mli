(** The lines of every figure in the paper's evaluation section (§4) and
    of the extensions, as queues under test: registry specs
    ({!Workload.spec}) labelled with the paper's legends, plus the
    hand-built shard front-end and universal construction. The labels
    are the committed [BENCH_*.json] series labels; {!Suite} turns each
    list into a benchmark row. See EXPERIMENTS.md for paper-vs-measured
    commentary. *)

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

val fig10 : sizes:int list -> Report.series list
(** Fig. 10: live-space ratio (wait-free / lock-free) vs initial queue
    size, for base WF and opt WF (1+2). *)
