(* Tests for the benchmark harness: barrier, workloads (with their
   built-in conservation checks), space measurement and report tables. *)

module B = Wfq_harness.Barrier
module W = Wfq_harness.Workload
module F = Wfq_harness.Figures
module Sp = Wfq_harness.Space
module R = Wfq_harness.Report

let test_barrier_releases_all () =
  let n = 5 in
  let b = B.create n in
  let released = Atomic.make 0 in
  let ds =
    List.init (n - 1) (fun _ ->
        Domain.spawn (fun () ->
            B.wait b;
            Atomic.incr released))
  in
  (* Nobody may pass before the last participant arrives. *)
  Unix.sleepf 0.05;
  Alcotest.(check int) "held until last arrival" 0 (Atomic.get released);
  B.wait b;
  List.iter Domain.join ds;
  Alcotest.(check int) "all released" (n - 1) (Atomic.get released)

let mutex = W.spec "mutex"

let test_pairs_all_impls () =
  List.iter
    (fun (q : W.queue) ->
      let r = W.pairs q ~threads:3 ~iters:2_000 () in
      Alcotest.(check bool) (q.label ^ " positive time") true (r.W.seconds >= 0.0);
      Alcotest.(check int) (q.label ^ " op count") (2 * 3 * 2_000) r.W.total_ops)
    F.extended_series

let test_p_enq_all_impls () =
  List.iter
    (fun (q : W.queue) ->
      let r = W.p_enq q ~threads:3 ~iters:2_000 () in
      Alcotest.(check int) (q.label ^ " op count") (3 * 2_000) r.W.total_ops;
      (* coin flips counted *)
      let enqs =
        Array.fold_left (fun a c -> a + c.W.enqs) 0 r.W.per_thread
      in
      let deqs =
        Array.fold_left
          (fun a c -> a + c.W.deq_hits + c.W.deq_empties)
          0 r.W.per_thread
      in
      Alcotest.(check int) "every iteration did one op" (3 * 2_000)
        (enqs + deqs))
    F.extended_series

let test_pairs_check_catches_broken_queue () =
  (* A deliberately broken queue (drops every other enqueue) must be
     rejected by the workload's conservation check. *)
  let broken : W.queue =
    {
      label = "broken";
      make =
        (fun ~num_threads ->
          let i = mutex.make ~num_threads in
          let flip = ref false in
          {
            i with
            enq =
              (fun ~tid v ->
                flip := not !flip;
                if !flip then i.enq ~tid v);
          });
    }
  in
  match W.pairs broken ~threads:1 ~iters:100 () with
  | _ -> Alcotest.fail "broken queue passed the conservation check"
  | exception Failure _ -> ()

let test_repeat_runs () =
  let times =
    W.repeat ~runs:3 (fun () -> W.pairs mutex ~threads:2 ~iters:500 ())
  in
  Alcotest.(check int) "three samples" 3 (List.length times);
  List.iter
    (fun t -> Alcotest.(check bool) "non-negative" true (t >= 0.0))
    times

let test_seed_determinism () =
  (* Same seed => same per-thread op mix in the random workload. *)
  let mix seed =
    let r = W.p_enq ~seed mutex ~threads:2 ~iters:1_000 () in
    Array.to_list (Array.map (fun c -> c.W.enqs) r.W.per_thread)
  in
  Alcotest.(check (list int)) "same seed same mix" (mix 7) (mix 7);
  Alcotest.(check bool) "different seed differs" true (mix 7 <> mix 8)

let test_space_footprint_scales () =
  let f100 = Sp.footprint F.lf ~size:100 in
  let f10k = Sp.footprint F.lf ~size:10_000 in
  Alcotest.(check bool)
    (Printf.sprintf "footprint grows with size (%d -> %d words)" f100 f10k)
    true
    (f10k > 50 * f100 / 10);
  (* WF nodes are larger than LF nodes (two extra fields). *)
  let wf = Sp.footprint F.wf_base ~size:10_000 in
  let lf = Sp.footprint F.lf ~size:10_000 in
  let ratio = float_of_int wf /. float_of_int lf in
  Alcotest.(check bool)
    (Printf.sprintf "WF/LF footprint ratio %.2f in (1.0, 2.5)" ratio)
    true
    (ratio > 1.0 && ratio < 2.5)

let test_footprint_active () =
  (* Active sampling must still see the prefill-dominated footprint and
     stay in the same ballpark as the static measurement. *)
  let static = Sp.footprint F.lf ~size:5_000 in
  let active =
    Sp.footprint_active F.lf ~size:5_000 ~iters:2_000 ~samples:8
  in
  let ratio = float_of_int active /. float_of_int static in
  Alcotest.(check bool)
    (Printf.sprintf "active within 2x of static (%.2f)" ratio)
    true
    (ratio > 0.5 && ratio < 2.0)

let test_figures_shapes () =
  (* Tiny-scale smoke of the figure generators: well-formed series with
     consistent x axes and positive measurements. *)
  let scale =
    { Wfq_harness.Figures.threads = [ 1; 2 ]; iters = 300; runs = 1;
      sizes = [ 1; 100 ] }
  in
  let well_formed series =
    Alcotest.(check bool) "non-empty" true (series <> []);
    let xs (s : R.series) = List.map fst s.points in
    let first = xs (List.hd series) in
    List.iter
      (fun (s : R.series) ->
        Alcotest.(check (list (float 0.0))) "same x axis" first (xs s);
        List.iter
          (fun (_, y) ->
            Alcotest.(check bool) "finite positive" true
              (Float.is_finite y && y >= 0.0))
          s.points)
      series
  in
  well_formed (Wfq_harness.Figures.fig7 ~scale ());
  well_formed (Wfq_harness.Figures.fig8 ~scale ());
  well_formed (Wfq_harness.Figures.fig9 ~scale ());
  well_formed (Wfq_harness.Figures.fig10 ~scale ());
  (* the space ratio must exceed 1: WF nodes are strictly larger *)
  List.iter
    (fun (s : R.series) ->
      List.iter
        (fun (_, y) -> Alcotest.(check bool) "ratio > 1" true (y > 1.0))
        s.points)
    (Wfq_harness.Figures.fig10 ~scale ())

let test_latency_summary () =
  let s = Wfq_harness.Latency.measure ~threads:2 ~iters:500 mutex in
  Alcotest.(check int) "samples" 1000 s.Wfq_harness.Latency.samples;
  let open Wfq_harness.Latency in
  let ordered what (d : dist) =
    Alcotest.(check bool)
      (what ^ " percentiles ordered")
      true
      (d.p50 <= d.p99 && d.p99 <= d.p999 && d.p999 <= d.max)
  in
  (* enqueue and dequeue are separate sides now — both must be
     internally ordered and strictly positive at the median (a zero
     would mean a fused or dropped sample) *)
  ordered "enqueue" s.enqueue;
  ordered "dequeue" s.dequeue;
  Alcotest.(check bool) "enqueue median positive" true (s.enqueue.p50 > 0.0);
  Alcotest.(check bool) "dequeue median positive" true (s.dequeue.p50 > 0.0)

(* Every bench series keeps the label set of its committed BENCH_*.json,
   so a registry or series edit that renames a line fails here. *)
let test_label_pins () =
  let labels = List.map (fun (q : W.queue) -> q.label) in
  let pin name expected got = Alcotest.(check (list string)) name expected got in
  pin "figures fig7/fig8" [ "LF"; "base WF"; "opt WF (1+2)" ] (labels F.fig7_series);
  pin "figures fig9"
    [ "base WF"; "opt WF (1+2)"; "opt WF (1)"; "opt WF (2)" ]
    (labels F.fig9_series);
  (* [wfq_bench extended] has no committed JSON: the pin is the label
     set of the hand-written list the registry-driven series replaced. *)
  pin "extended"
    (List.sort compare
       [ "LF"; "LF pooled"; "LF optimistic"; "base WF"; "opt WF (1)";
         "opt WF (2)"; "opt WF (1+2)"; "opt WF (1+2) pooled"; "WF fps";
         "WF fps pooled"; "WF ring"; "WF polylog"; "WF hazard-ptr";
         "WF universal"; "flat-combining"; "two-lock"; "mutex" ])
    (List.sort compare (labels F.extended_series));
  pin "figures batch"
    [ "WF fps per-item"; "WF fps batch"; "opt WF (1+2) batch"; "WF ring batch";
      "WF shard-4 (rr) batch" ]
    (labels F.batch_series);
  pin "fps"
    [ "LF"; "base WF"; "opt WF (1+2)"; "WF fps"; "WF fps pooled"; "WF fps mf=1";
      "WF fps mf=8"; "WF fps mf=64"; "WF fps mf=1024" ]
    (labels F.fps_series);
  pin "alloc"
    [ "LF"; "LF pooled"; "opt WF (1+2)"; "opt WF (1+2) pooled"; "WF fps";
      "WF fps pooled" ]
    (labels F.alloc_series);
  pin "ring"
    [ "opt WF (1+2)"; "opt WF (1+2) pooled"; "WF fps pooled"; "WF ring" ]
    (labels F.ring_series);
  pin "polylog" [ "opt WF (1+2)"; "WF fps pooled"; "WF polylog" ]
    (labels F.polylog_series);
  pin "shard"
    [ "opt WF (1+2)"; "WF shard-1"; "WF shard-2"; "WF shard-4"; "WF shard-8";
      "WF shard-8 (rr)" ]
    (labels F.shard_series);
  pin "sched"
    [ "kp_opt12"; "fps_pooled"; "shard_rr2"; "ring" ]
    (List.map fst Wfq_harness.Sched_bench.backends);
  pin "latency_openloop"
    [ "kp-opt12"; "kp-opt12-pooled"; "fps"; "fps-pooled"; "ring"; "polylog" ]
    (List.map
       (fun (module B : Wfq_core.Queue_intf.BACKEND) -> B.id)
       (Wfq_harness.Open_loop.default_backends ()))

let test_chart_renders () =
  let series =
    [
      { R.label = "a"; points = [ (1.0, 1.0); (2.0, 2.0); (4.0, 4.0) ] };
      { R.label = "b"; points = [ (1.0, 2.0); (2.0, 4.0); (4.0, 8.0) ] };
    ]
  in
  let out = Wfq_harness.Chart.render ~width:32 ~height:8 series in
  Alcotest.(check bool) "mentions both series" true
    (String.length out > 0
    && String.index_opt out '*' <> None
    && String.index_opt out '+' <> None);
  Alcotest.(check string) "empty data" "(no data)\n"
    (Wfq_harness.Chart.render [])

let test_report_table_renders () =
  (* Smoke: the printer must not raise and must align missing points. *)
  R.print_table ~title:"test" ~x_label:"threads" ~y_label:"sec"
    [
      { R.label = "a"; points = [ (1.0, 0.5); (2.0, 0.7) ] };
      { R.label = "b"; points = [ (1.0, 0.6) ] };
    ];
  R.print_csv ~title:"test"
    [ { R.label = "a"; points = [ (1.0, 0.5) ] } ]

let () =
  Alcotest.run "harness"
    [
      ( "barrier",
        [ Alcotest.test_case "releases all at once" `Quick
            test_barrier_releases_all ] );
      ( "workloads",
        [
          Alcotest.test_case "pairs on every impl" `Quick
            test_pairs_all_impls;
          Alcotest.test_case "p_enq on every impl" `Quick
            test_p_enq_all_impls;
          Alcotest.test_case "conservation check bites" `Quick
            test_pairs_check_catches_broken_queue;
          Alcotest.test_case "repeat collects samples" `Quick
            test_repeat_runs;
          Alcotest.test_case "workload seeds deterministic" `Quick
            test_seed_determinism;
        ] );
      ( "space",
        [
          Alcotest.test_case "footprints scale and compare" `Quick
            test_space_footprint_scales;
          Alcotest.test_case "active sampling agrees" `Quick
            test_footprint_active;
        ] );
      ( "report",
        [
          Alcotest.test_case "tables render" `Quick
            test_report_table_renders;
          Alcotest.test_case "charts render" `Quick test_chart_renders;
        ] );
      ( "figures",
        [
          Alcotest.test_case "series well-formed" `Slow test_figures_shapes;
          Alcotest.test_case "latency summary" `Quick test_latency_summary;
          Alcotest.test_case "series label pins" `Quick test_label_pins;
        ] );
    ]
