(** The benchmark table: one row per [wfq_bench] suite. Pairs-style rows
    collect through {!collect}; the rest build their series from their
    own engine. Each row's guard is the check its CI job enforces. *)

type scale = {
  threads : int list;
  iters : int;
  runs : int;
  sizes : int list;
}

(* The paper runs 1,000,000 iterations per thread over 1..16 threads,
   ten repetitions per point; [quick] keeps the shapes at
   container-friendly cost. *)
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

(* The extensions sweep to 8 domains, where sharding must pay off. *)
let to_eight = { quick with threads = [ 1; 2; 4; 8 ] }

type t = {
  name : string;
  doc : string;
  title : string;
  json : string option;
  x : string;
  y : string;
  default : scale;
  run : scale -> Report.series list;
  meta : scale -> Report.series list -> (string * string) list;
  write : path:string -> meta:(string * string) list -> Report.series list -> unit;
  guard : scale -> Report.series list -> (unit, string) result;
}

let ints l = String.concat "," (List.map string_of_int l)
let labelled p label = if p = "" then label else p ^ ":" ^ label

(* Guards are written with [require], which fails the row with its
   message; [row] turns the failure into the guard's [Error]. *)
let require ok fmt = Printf.ksprintf (fun m -> if not ok then failwith m) fmt

let row ~name ~doc ~title ?(json = Some ("BENCH_" ^ name ^ ".json")) ?(x = "threads")
    ?(y = "seconds") ?(default = quick) ?write ?(guard = fun _ _ -> ()) ~meta
    run =
  let write =
    Option.value write ~default:(fun ~path ~meta series ->
        Report.write_json ~path ~title ~meta series)
  in
  let guard scale series =
    match guard scale series with () -> Ok () | exception Failure m -> Error m
  in
  { name; doc; title; json; x; y; default; run; meta; write; guard }

(* --- collection ---------------------------------------------------- *)

(* Repetitions of all queues are interleaved in rotating order rather
   than completing one queue before the next: heap and allocator state
   left by earlier measurements (major-heap growth, domain bookkeeping)
   inflates later ones by more than the differences under study, and
   rotation puts every queue in every position equally often. Points are
   medians: on small hosts the dominant noise is multiplicative
   interference spikes, which a mean smears over whichever queue they
   hit. *)
let collect ~workload ~projections queues scale =
  let queues = Array.of_list queues in
  let k = Array.length queues in
  let samples =
    List.map
      (fun threads ->
        let s = Array.make k [] in
        for run = 0 to scale.runs - 1 do
          for j = 0 to k - 1 do
            let i = (run + j) mod k in
            s.(i) <- workload queues.(i) ~threads ~iters:scale.iters :: s.(i)
          done
        done;
        (float_of_int threads, s))
      scale.threads
  in
  List.concat_map
    (fun (p, project) ->
      List.mapi
        (fun i (q : Workload.queue) ->
          {
            Report.label = labelled p q.label;
            points =
              List.map
                (fun (x, s) -> (x, Wfq_primitives.Stats.median (List.map project s.(i))))
                samples;
          })
        (Array.to_list queues))
    projections

let seconds (r : Workload.run_result) = r.seconds
let minor_gcs (r : Workload.run_result) = float_of_int r.gc.minor_collections
(* Allocation rate: words each operation allocates (and promotes),
   from the workers' own [Gc.quick_stat] deltas in the measured window. *)
let per_op words (r : Workload.run_result) = words r.gc /. float_of_int r.total_ops
let words_per_op = per_op (fun gc -> gc.minor_words)
let pairs q ~threads ~iters = Workload.pairs q ~threads ~iters ()
let p_enq q ~threads ~iters = Workload.p_enq q ~threads ~iters ()

(* The parameters every collected row records in its meta. *)
let scale_meta scale =
  [
    ("threads", ints scale.threads);
    ("iters", string_of_int scale.iters);
    ("runs", string_of_int scale.runs);
    ("aggregation", "median, interleaved run order");
  ]

let sweep ~name ~doc ~title ?json ?y ?(default = to_eight) ?(extra_meta = []) ?guard
    ?(workload = ("pairs", pairs)) ?(projections = [ ("", seconds) ]) queues =
  row ~name ~doc ~title ?json ?y ~default ?guard
    ~meta:(fun scale _ -> (("workload", fst workload) :: scale_meta scale) @ extra_meta)
    (collect ~workload:(snd workload) ~projections queues)

(* --- guard helpers -------------------------------------------------- *)

let points series label =
  match List.find_opt (fun (s : Report.series) -> s.label = label) series with
  | Some s -> s.points
  | None -> failwith ("missing series " ^ label)

let y_at label pts x =
  match List.assoc_opt x pts with
  | Some y -> y
  | None -> Printf.ksprintf failwith "%s has no point at x = %g" label x

let unique_labels series =
  let labels = List.map (fun (s : Report.series) -> s.label) series in
  require (List.length (List.sort_uniq compare labels) = List.length labels)
    "duplicate labels"

(* Each label is present, its x values are exactly [axis], every y > 0. *)
let headline series ~axis labels =
  List.iter
    (fun label ->
      let pts = points series label in
      let xs = List.sort_uniq compare (List.map fst pts) in
      require (xs = List.sort_uniq compare axis) "%s: x axis %s" label
        (String.concat "," (List.map string_of_float xs));
      List.iter (fun (x, y) -> require (y > 0.) "%s at %g: %g" label x y) pts)
    labels

(* --- the paper's rows ---------------------------------------------- *)

let fig7 =
  sweep ~name:"fig7" ~json:None ~doc:"Enqueue-dequeue pairs benchmark (paper Fig. 7)."
    ~title:"Figure 7: enqueue-dequeue pairs" ~default:quick Figures.fig7_series

let fig8 =
  sweep ~name:"fig8" ~json:None ~doc:"50% enqueues benchmark (paper Fig. 8)."
    ~title:"Figure 8: 50% enqueues" ~default:quick ~workload:("p_enq", p_enq)
    Figures.fig7_series

let fig9 =
  sweep ~name:"fig9" ~json:None ~doc:"Optimization ablation (paper Fig. 9)."
    ~title:"Figure 9: impact of the optimizations" ~default:quick
    Figures.fig9_series

let fig10 =
  row ~name:"fig10" ~json:None ~doc:"Live-space overhead (paper Fig. 10)."
    ~title:"Figure 10: live space overhead (WF / LF)" ~x:"queue size"
    ~y:"live-words ratio"
    ~meta:(fun scale _ -> [ ("workload", "live-space ratio"); ("sizes", ints scale.sizes) ])
    (fun scale -> Figures.fig10 ~sizes:scale.sizes)

let extended =
  sweep ~name:"extended" ~json:None ~doc:"All implementations on the pairs benchmark (extension)."
    ~title:"Extension: all implementations (pairs)" ~default:quick
    Figures.extended_series

let ablation =
  sweep ~name:"ablation" ~json:None
    ~doc:"Helping-chunk size and tuning enhancements (the paper's section 3.3 knobs, extension)."
    ~title:"Ablation: helping-chunk size and tuning enhancements (pairs)"
    ~default:quick Figures.ablation_series

(* One descriptor publication covering a whole batch must amortize to at
   least 2x over the per-item fast path on the same element volume.
   Enforced at 1 domain: on a small host multi-domain points measure
   preemption interleaving, not amortization. *)
let batch_guard batch _ series =
  if batch <> None then begin
    let per_item = points series "batch:WF fps per-item" in
    let native = points series "batch:WF fps batch" in
    List.iter (fun (x, _) -> ignore (y_at "batch:WF fps batch" native x)) per_item;
    let base = y_at "batch:WF fps per-item" per_item 1. in
    let b = y_at "batch:WF fps batch" native 1. in
    require (base >= 2. *. b) "batch speedup %.2fx < 2x at 1 domain" (base /. b)
  end

let figures ?batch () =
  let fig p workload queues =
    collect ~workload ~projections:[ (p, seconds); (p ^ "-minor-gcs", minor_gcs) ] queues
  in
  let run scale =
    fig "fig7" pairs Figures.fig7_series scale
    @ fig "fig8" p_enq Figures.fig7_series scale
    @ fig "fig9" pairs Figures.fig9_series scale
    @ List.map
        (fun (s : Report.series) -> { s with label = labelled "fig10" s.label })
        (Figures.fig10 ~sizes:scale.sizes)
    @
    match batch with
    | None -> []
    | Some batch ->
        (* The batch workload needs at least one full round per thread. *)
        fig "batch"
          (fun q ~threads ~iters -> Workload.pairs_batch q ~threads ~iters ~batch ())
          Figures.batch_series
          { scale with iters = max scale.iters batch }
  in
  row ~name:"figures"
    ~doc:
      "Every paper figure (7-10) in one run, series labels prefixed figN; \
       --batch K adds the batch-native decomposition (per-item WF fps vs native \
       batch backends, docs/BATCHING.md) and exits 1 if native fps batches do \
       not halve the per-item time at 1 domain."
    ~title:"Paper figures 7-10 (combined)" ~x:"threads (fig10: queue size)"
    ~y:
      "seconds for fig7-9 and batch; live-words ratio for fig10; *-minor-gcs \
       series are minor collections per run"
    ~guard:(batch_guard batch)
    ~meta:(fun scale _ ->
      ( "workloads",
        "fig7/fig9 pairs; fig8 p_enq; fig10 live-space ratio; batch: series are \
         the batch pairs workload (docs/BATCHING.md)" )
      :: scale_meta scale
      @ [
          ("batch", Option.fold ~none:"none" ~some:string_of_int batch);
          ("x", "threads for fig7-9 and batch labels; initial queue size for fig10");
        ])
    run

(* --- the extensions ------------------------------------------------- *)

let shard =
  sweep ~name:"shard"
    ~doc:
      "Shard-count scaling of the sharded front-end (lib/shard) vs opt WF (1+2) \
       on the relaxed pairs workload."
    ~title:"Shard scaling: enqueue-dequeue pairs (relaxed)"
    ~workload:
      ("pairs_relaxed", fun q ~threads ~iters -> Workload.pairs_relaxed q ~threads ~iters ())
    Figures.shard_series

let fps =
  sweep ~name:"fps"
    ~doc:
      "Fast-path/slow-path queue (Kp_queue_fps) vs LF / base WF / opt WF (1+2), \
       with the max_failures sweep."
    ~title:"Fast-path/slow-path: enqueue-dequeue pairs"
    ~y:"seconds; minor-gcs: series are collections per run"
    ~extra_meta:[ ("batch", "none") ]
    ~workload:("pairs; batch: series are the batch pairs workload", pairs)
    ~projections:[ ("", seconds); ("minor-gcs", minor_gcs) ]
    Figures.fps_series

(* Unpooled opt WF (1+2) allocates each node and descriptor as one plain
   record: 36 words/op at 1 domain. More than 10% above that at any
   width means a self-referential [let rec] record (built twice by OCaml
   5.1, 67 words/op) is back on the hot path. *)
let kp_unpooled_words = 36.0

let alloc_guard _ series =
  let words impl = points series ("words_per_op:" ^ impl) in
  List.iter
    (fun impl ->
      let plain = words impl in
      let pooled = words (impl ^ " pooled") in
      List.iter
        (fun (x, w) ->
          let pw = y_at (impl ^ " pooled") pooled x in
          require (pw < w) "%s pooled allocates %.2f words/op at %g threads, unpooled %.2f"
            impl pw x w)
        plain)
    [ "opt WF (1+2)"; "WF fps"; "LF" ];
  List.iter
    (fun (x, w) ->
      require (w <= kp_unpooled_words *. 1.10)
        "opt WF (1+2) allocates %.2f words/op at %g threads, more than 10%% over %g" w x
        kp_unpooled_words)
    (words "opt WF (1+2)")

let alloc =
  sweep ~name:"alloc"
    ~doc:
      "Allocation-rate decomposition: minor-heap words/op, promoted words/op and \
       collection counts for LF / opt WF (1+2) / WF fps against their \
       segment-pooled counterparts. Exits 1 if a pooled queue out-allocates its \
       unpooled counterpart."
    ~title:"Allocation decomposition: enqueue-dequeue pairs"
    ~y:
      "per series-label prefix: words_per_op, promoted_per_op (words/operation); \
       minor_gcs, major_gcs (collections/run)"
    ~guard:alloc_guard
    ~projections:
      [
        ("words_per_op", words_per_op);
        ("promoted_per_op", per_op (fun gc -> gc.promoted_words));
        ("minor_gcs", minor_gcs);
        ("major_gcs", fun r -> float_of_int r.gc.major_collections);
      ]
    Figures.alloc_series

(* The ring's steady state allocates no nodes, so its words/op must stay
   flat across widths (width-dependence is a protocol change) and below
   the pooled linked floor. The fps comparison is gated to >= 4 domains:
   fps-pooled's uncontended fast path allocates ~2 words/op, under the
   ring's 3.5-word ABA-proofing floor; failed-CAS re-boxing puts it above
   the ring once domains contend. *)
let ring_guard _ series =
  let ring = points series "words_per_op:WF ring" in
  let ys = List.map snd ring in
  require
    (ys <> [] && List.fold_left max neg_infinity ys -. List.fold_left min infinity ys < 0.2)
    "ring words/op not flat across widths: %s"
    (String.concat ", " (List.map (fun (x, y) -> Printf.sprintf "%g: %.2f" x y) ring));
  List.iter
    (fun (floor, min_threads) ->
      let pooled = points series ("words_per_op:" ^ floor) in
      List.iter
        (fun (x, rw) ->
          if x >= min_threads then begin
            let pw = y_at floor pooled x in
            require (rw < pw) "ring allocates %.2f words/op at %g threads, %s %.2f" rw x
              floor pw
          end)
        ring)
    [ ("opt WF (1+2) pooled", 0.); ("WF fps pooled", 4.) ]

let ring =
  sweep ~name:"ring"
    ~doc:
      "Bounded-memory ring (Ring_queue) vs opt WF (1+2), its pooled counterpart \
       and WF fps pooled: completion time, words/op and minor collections on \
       the pairs workload. Exits 1 if the ring's words/op is not flat or not \
       below the pooled floors."
    ~title:"Bounded ring vs pooled linked queues (pairs)"
    ~y:
      "per series-label prefix: time (seconds), words_per_op (words/operation), \
       minor_gcs (collections/run)"
    ~guard:ring_guard
    ~projections:
      [ ("time", seconds); ("words_per_op", words_per_op); ("minor_gcs", minor_gcs) ]
    Figures.ring_series

let polylog =
  sweep ~name:"polylog"
    ~doc:
      "Helping-cost crossover: the polylog tournament-tree queue (Polylog_queue, \
       O(log^2 p) steps/op) vs opt WF (1+2) and WF fps pooled on the pairs \
       workload."
    ~title:"Polylog crossover: enqueue-dequeue pairs"
    ~y:"seconds; minor-gcs: collections per run; cert_steps: max certified steps/fiber vs p"
    ~workload:("pairs; cert_steps: series are certified bounds", pairs)
    ~projections:[ ("", seconds); ("minor-gcs", minor_gcs) ]
    Figures.polylog_series

let sched ?(requests = 200) ?(fanout = 8) ?(work = 400) () =
  let guard scale series =
    unique_labels series;
    List.iter
      (fun (b, _) ->
        headline series
          ~axis:(List.map float_of_int scale.threads)
          (List.map (fun f -> f ^ ":" ^ b) [ "throughput"; "fiber_p50_ns"; "fiber_p99_ns" ]);
        ignore (points series ("steal_attempts:" ^ b)))
      Sched_bench.backends
  in
  row ~name:"sched"
    ~doc:
      "End-to-end service scenario on the effect-based fiber scheduler \
       (lib/sched): request fan-out with CPU work and queue hops over the \
       kp_opt12 / fps_pooled / shard_rr2 / ring run-queue backends."
    ~title:"Scheduler service scenario: request fan-out" ~x:"worker domains"
    ~y:
      "per series-label prefix: throughput (requests/s), fiber_p50_ns / \
       fiber_p99_ns (spawn-to-completion), steals (tasks stolen per run)"
    ~default:{ quick with threads = [ 1; 2; 4 ] }
    ~guard
    ~meta:(fun scale _ ->
      [
        ("workload", "request fan-out; subfibers yield once + cpu burn");
        ("domains", ints scale.threads);
        ("requests", string_of_int requests);
        ("fanout", string_of_int fanout);
        ("work", string_of_int work);
        ("runs", string_of_int scale.runs);
        ("aggregation", "median over runs, per field");
        ("x", "worker domains");
      ])
    (fun scale ->
      Sched_bench.service ~domains:scale.threads ~requests ~fanout ~work ~runs:scale.runs)

(* [stats] keeps BENCH_stats.json's own layout (run lines, the overhead
   table and the whole metric registry with histogram buckets and
   per-slot counters), which its series only summarize, so its writer
   reads the latest run. *)
let stats =
  let module OB = Obsv_bench in
  let last = ref None in
  let run scale =
    let threads = List.fold_left max 1 scale.threads in
    let reg, lines = OB.collect ~threads ~iters:scale.iters () in
    print_endline "=== metric registry ===";
    Wfq_obsv.Metrics.dump reg stdout;
    let overheads = OB.measure_overhead ~iters:scale.iters ~runs:scale.runs () in
    last := Some (reg, lines, overheads);
    let line label y = { Report.label; points = [ (float_of_int threads, y) ] } in
    List.map (fun (l : OB.run_line) -> line ("seconds:" ^ l.queue) l.seconds) lines
    @ List.concat_map
        (fun (p, f) -> List.map (fun (o : OB.overhead) -> line (p ^ ":" ^ o.oh_queue) (f o)) overheads)
        [
          ("ratio", fun (o : OB.overhead) -> o.ratio);
          ("disabled_ns_per_op", fun o -> o.disabled_ns_per_op);
          ("enabled_ns_per_op", fun o -> o.enabled_ns_per_op);
        ]
    @ List.filter_map
        (fun (name, _) ->
          Option.map
            (fun v -> line ("metric:" ^ name) (float_of_int v))
            (Wfq_obsv.Metrics.value reg name))
        (Wfq_obsv.Metrics.entries reg)
  in
  let guard _ series =
    let value label = snd (List.hd (points series label)) in
    List.iter
      (fun (s : Report.series) ->
        if String.starts_with ~prefix:"ratio:" s.label then
          List.iter
            (fun (_, r) ->
              require (r <= OB.overhead_budget)
                "%s: instrumentation overhead ratio %.4f exceeds budget %g" s.label r
                OB.overhead_budget)
            s.points)
      series;
    List.iter
      (fun name -> ignore (value ("metric:" ^ name)))
      [
        "kp_opt12.phase_lag"; "fps_slow.slow_entries"; "fps_pooled.nodes.reused";
        "shard_rr4.shard0.steals"; "registry.acquisitions";
      ];
    require (value "metric:fps_slow.slow_entries" > 0.) "slow-path metrics empty";
    let steals i = value (Printf.sprintf "metric:shard_rr4.shard%d.steals" i) in
    require (steals 0 +. steals 1 +. steals 2 +. steals 3 > 0.) "no shard steals recorded"
  in
  let write ~path ~meta _ =
    let reg, lines, overheads = Option.get !last in
    let buf = Buffer.create 4096 in
    let add fmt = Printf.bprintf buf fmt in
    let items f l = String.concat ",\n" (List.map f l) in
    (* The file's meta predates the series "y" key and keeps ints bare. *)
    let value v = if int_of_string_opt v = None then Printf.sprintf "%S" v else v in
    add "{\n  \"title\": \"Observability snapshot: instrumented pairs runs\",\n";
    add "  \"meta\": {%s},\n"
      (String.concat ", "
         (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (value v)) (List.remove_assoc "y" meta)));
    add "  \"runs\": [\n%s\n  ],\n"
      (items
         (fun (l : OB.run_line) ->
           Printf.sprintf
             "    {\"queue\": \"%s\", \"threads\": %d, \"iters\": %d, \"seconds\": %g, \"ops\": %d}"
             l.queue l.threads l.iters l.seconds l.ops)
         lines);
    add "  \"overhead\": {\"budget\": %g, \"queues\": [\n%s\n  ]},\n  " OB.overhead_budget
      (items
         (fun (o : OB.overhead) ->
           Printf.sprintf
             "    {\"queue\": \"%s\", \"disabled_ns_per_op\": %g, \"enabled_ns_per_op\": %g, \
              \"ratio\": %g}"
             o.oh_queue o.disabled_ns_per_op o.enabled_ns_per_op o.ratio)
         overheads);
    Wfq_obsv.Metrics.to_json_body buf reg;
    add "\n}\n";
    Out_channel.with_open_bin path (fun oc -> Buffer.output_buffer oc buf)
  in
  row ~name:"stats"
    ~doc:
      "Observability snapshot (Wfq_obsv): run instrumented pairs workloads over \
       opt WF (1+2), WF fps (pooled and forced-slow), the sharded front-end and \
       the tid registry; print the metric registry and the 2% overhead guard. \
       Exits 1 if the overhead exceeds the budget or a headline metric is \
       missing."
    ~title:"Observability snapshot: instrumented pairs runs" ~y:"per prefix"
    ~default:{ quick with threads = [ 4 ]; iters = 20_000; runs = 50 }
    ~write ~guard
    ~meta:(fun scale _ ->
      [
        ("threads", string_of_int (List.fold_left max 1 scale.threads));
        ("iters", string_of_int scale.iters);
        ("runs", string_of_int scale.runs);
        ("workload", "pairs (shard_rr4: relaxed)");
        ("latency_unit", "ns (bechamel monotonic clock)");
      ])
    run

let openloop_fields =
  [
    ("enq_p50", fun (r : Open_loop.result) -> r.enq.p50);
    ("enq_p99", fun r -> r.enq.p99);
    ("enq_p999", fun r -> r.enq.p999);
    ("sojourn_p50", fun r -> r.sojourn.p50);
    ("sojourn_p99", fun r -> r.sojourn.p99);
    ("sojourn_p999", fun r -> r.sojourn.p999);
    ("achieved_rate", fun r -> r.achieved_rate);
  ]

let latency_openloop ?(config = Open_loop.default_config)
    ?(rates = [ 2000.; 4000.; 8000.; 16000. ]) ?(events = 4000) ?(knee_mult = 4.0)
    ?knee_floor ?backends () =
  let rates = List.sort_uniq compare rates and config = { config with events } in
  let ids () =
    List.map
      (fun (module B : Wfq_core.Queue_intf.BACKEND) -> B.id)
      (Option.value backends ~default:(Open_loop.default_backends ()))
  in
  (* Each backend's saturation knee, from its sojourn-p99-vs-load curve. *)
  let knees series =
    List.map (fun id -> (id, Open_loop.knee ~mult:knee_mult (points series ("sojourn_p99:" ^ id)))) (ids ())
  in
  let show_knee = Option.fold ~none:"none" ~some:(Printf.sprintf "%.0f") in
  let run _ =
    let series =
      List.concat_map
        (fun id ->
          let pts =
            List.map (fun rate -> (rate, Open_loop.run { config with rate } (Workload.spec id))) rates
          in
          List.map
            (fun (field, f) ->
              { Report.label = field ^ ":" ^ id; points = List.map (fun (x, r) -> (x, f r)) pts })
            openloop_fields)
        (ids ())
    in
    Printf.printf "\nsaturation knees (first load with sojourn p99 > %gx the lowest load's):\n"
      knee_mult;
    List.iter (fun (id, k) -> Printf.printf "  %-16s %s\n" id (show_knee k)) (knees series);
    series
  in
  let guard _ series =
    unique_labels series;
    List.iter
      (fun id ->
        headline series ~axis:rates (List.map (fun (f, _) -> f ^ ":" ^ id) openloop_fields);
        List.iter
          (fun side ->
            let pct p = points series (Printf.sprintf "%s_%s:%s" side p id) in
            List.iter
              (fun (x, a) ->
                let b = y_at side (pct "p99") x and c = y_at side (pct "p999") x in
                require (a <= b && b <= c) "%s:%s at %g: %g/%g/%g" side id x a b c)
              (pct "p50"))
          [ "enq"; "sojourn" ])
      (ids ());
    Option.iter
      (fun floor ->
        List.iter
          (function
            | id, Some k ->
                require (k >= floor) "knee regression: %s saturates at %.0f events/s (floor %.0f)"
                  id k floor
            | _, None -> ())
          (knees series))
      knee_floor
  in
  row ~name:"latency-openloop" ~json:(Some "BENCH_latency_openloop.json")
    ~doc:
      "Open-loop SLO latency sweep: seeded Poisson or burst arrivals drive each \
       registry backend at fixed offered loads; p50/p99/p999 of enqueue latency \
       and end-to-end sojourn are measured from the intended send time \
       (coordinated-omission-safe, docs/LATENCY.md) and the sojourn-p99 \
       saturation knee is reported per backend. --knee-floor RATE exits 1 if \
       any backend's knee regresses below RATE."
    ~title:"Open-loop latency vs offered load" ~x:"offered load, events/s"
    ~y:
      "per series-label prefix: enq_* (enqueue completion - intended send, ns), \
       sojourn_* (dequeue completion - intended send, ns), achieved_rate \
       (events/s)"
    ~guard
    ~meta:(fun _ series ->
      [
        ("workload", "open-loop arrivals; latency from intended send time");
        ("pattern", Arrivals.pattern_name config.pattern);
        ("rates", String.concat "," (List.map string_of_float rates));
        ("events", string_of_int events);
        ("producers", string_of_int config.producers);
        ("consumers", string_of_int config.consumers);
        ("skew", string_of_float config.skew);
        ("seed", string_of_int config.seed);
        ( "stall",
          match config.stall with
          | None -> "none"
          | Some s -> Printf.sprintf "victim 0, %d ns after %d dequeues" s.duration_ns s.after );
        ("knee_mult", string_of_float knee_mult);
        ( "knee",
          String.concat "; " (List.map (fun (id, k) -> id ^ "=" ^ show_knee k) (knees series)) );
        ("x", "offered load, events/s");
      ])
    run

let all =
  [
    fig7; fig8; fig9; fig10; extended; ablation; figures (); shard; fps; alloc; ring;
    polylog; sched (); stats; latency_openloop ();
  ]

(* --- running a row -------------------------------------------------- *)

let host_meta () =
  [
    ("cores", string_of_int (Domain.recommended_domain_count ()));
    ("ocaml", Sys.ocaml_version);
    ("ocamlrunparam", Option.value (Sys.getenv_opt "OCAMLRUNPARAM") ~default:"");
    ("minor_heap_words", string_of_int (Gc.get ()).minor_heap_size);
  ]

(* On a small host, stop-the-world minor collections synchronized across
   domains dominate the default-arena (256k-word) run time and bury the
   queue-level differences; an 8M-word minor heap removes that floor. The
   arena is reserved at runtime startup, so only the environment sets it
   ([Gc.set] afterwards measurably does nothing):

     OCAMLRUNPARAM='s=8M' wfq_bench shard --json *)
let minor_heap_note =
  lazy
    (let minor_words = (Gc.get ()).minor_heap_size in
     if minor_words < 8 * 1024 * 1024 then
       Printf.eprintf
         "note: minor heap is %d words; the canonical bench environment is \
          OCAMLRUNPARAM='s=8M' (see EXPERIMENTS.md).\n%!"
         minor_words)

let exec ?(csv = false) ?(json = false) t scale =
  Lazy.force minor_heap_note;
  let series = t.run scale in
  (* One table (and CSV block) per label prefix, in first-seen order. *)
  let prefix (s : Report.series) =
    Option.fold ~none:"" ~some:(String.sub s.label 0) (String.index_opt s.label ':')
  in
  List.iter
    (fun p ->
      let title = if p = "" then t.title else t.title ^ " [" ^ p ^ "]" in
      let group = List.filter (fun s -> prefix s = p) series in
      Report.print_table ~title ~x_label:t.x ~y_label:t.y group;
      if csv then Report.print_csv ~title group)
    (List.fold_left
       (fun ps s -> if List.mem (prefix s) ps then ps else ps @ [ prefix s ])
       [] series);
  if json then
    Option.iter
      (fun path ->
        t.write ~path ~meta:(t.meta scale series @ (("y", t.y) :: host_meta ())) series;
        Printf.printf "wrote %s\n%!" path)
      t.json;
  Result.map_error (Printf.sprintf "%s guard failed: %s" t.name) (t.guard scale series)
  |> Result.map (fun () -> series)
