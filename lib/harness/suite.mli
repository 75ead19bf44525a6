(** The benchmark table: every [wfq_bench] subcommand is one row — the
    series it collects at a {!scale}, the JSON file they go to and the
    guard they must pass. [bin/wfq_bench.exe] and [bench/main.exe] run
    rows through {!exec}. Methodology and numbers: EXPERIMENTS.md. *)

type scale = {
  threads : int list;
      (** x axis: threads, or worker domains for [sched]; [stats] runs at
          the largest *)
  iters : int;  (** per thread *)
  runs : int;  (** repetitions per point; a point is their median *)
  sizes : int list;  (** x axis of fig. 10 (initial queue size) *)
}

val quick : scale
(** Container-friendly: 1..16 threads, 10k iterations, 3 runs. *)

val paper : scale
(** The paper's: 1..16 threads, 1M iterations, 10 runs, sizes to 10{^7}. *)

type t = {
  name : string;  (** the [wfq_bench] subcommand *)
  doc : string;
  title : string;
  json : string option;
      (** the file [--json] writes; [None] for the paper's rows, which
          share [figures]' file *)
  x : string;  (** x axis of the printed tables *)
  y : string;  (** y of the tables and the JSON meta's ["y"] *)
  default : scale;  (** the scale no option overrides *)
  run : scale -> Report.series list;
  meta : scale -> Report.series list -> (string * string) list;
  write : path:string -> meta:(string * string) list -> Report.series list -> unit;
      (** {!Report.write_json}, except [stats], which keeps its layout *)
  guard : scale -> Report.series list -> (unit, string) result;
}

(** {2 The rows}

    Pairs-style rows collect through one path: repetitions interleaved
    in rotating order across the row's queues, each point the median. *)

val fig7 : t
val fig8 : t
val fig9 : t
val fig10 : t
val extended : t
val ablation : t

val figures : ?batch:int -> unit -> t
(** Figs. 7-10 in one dataset (["figN:"], ["figN-minor-gcs:"]), plus
    ["batch:"] series at batch size [batch]. Guard, with [batch]: native
    fps batches take at most half the per-item time at 1 domain. *)

val shard : t
val fps : t

val alloc : t
(** Guard: every pooled queue allocates strictly fewer words/op than its
    unpooled counterpart; unpooled opt WF (1+2) at most 36 × 1.10. *)

val ring : t
(** Guard: the ring's words/op is flat within 0.2 and strictly below opt
    WF (1+2) pooled, and WF fps pooled at >= 4 domains. *)

val polylog : t
(** The measured half; [bin/wfq_bench] adds the certified step-bound
    rows ([cert_steps:]) and their growth guard (the harness stays
    simulator-free). *)

val sched : ?requests:int -> ?fanout:int -> ?work:int -> unit -> t
(** Guard: per backend, throughput and fiber p50/p99 positive on the
    requested domain axis, and a steal_attempts series. *)

val stats : t
(** Series ["ratio:"], ["disabled_ns_per_op:"], ["enabled_ns_per_op:"],
    ["seconds:"] and ["metric:"] (one per registry entry). Guard: every
    ratio within {!Obsv_bench.overhead_budget}, the headline metrics
    present, slow-path entries and shard steals recorded. *)

val latency_openloop :
  ?config:Open_loop.config ->
  ?rates:float list ->
  ?events:int ->
  ?knee_mult:float ->
  ?knee_floor:float ->
  ?backends:Wfq_core.Backends.t list ->
  unit ->
  t
(** One point per offered load in [rates] (the x axis, events/s; default
    2000,4000,8000,16000), each [events] long (default 4000); [config]
    supplies the rest and the scale is unused. Guard: per backend, the
    seven headline series positive on the rate axis, p50 <= p99 <= p999,
    and no saturation knee below [knee_floor]. *)

val all : t list
(** Every row at its defaults, in subcommand order. *)

val exec : ?csv:bool -> ?json:bool -> t -> scale -> (Report.series list, string) result
(** Run the row, print one table per label prefix (and CSV), write
    the row's JSON file if asked and it has one (its meta adds the host: [cores], [ocaml],
    [ocamlrunparam], [minor_heap_words]), then apply the guard. *)
