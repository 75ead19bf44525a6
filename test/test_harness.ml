(* Tests for the benchmark harness: barrier, workloads (with their
   built-in conservation checks), space measurement and report tables. *)

module B = Wfq_harness.Barrier
module W = Wfq_harness.Workload
module F = Wfq_harness.Figures
module S = Wfq_harness.Suite
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
  (* Tiny-scale smoke of the figure rows: well-formed series with
     consistent x axes and positive measurements. *)
  let scale =
    { S.threads = [ 1; 2 ]; iters = 300; runs = 1; sizes = [ 1; 100 ] }
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
  List.iter (fun (row : S.t) -> well_formed (row.run scale)) [ S.fig7; S.fig8; S.fig9 ];
  let fig10 = S.fig10.run scale in
  well_formed fig10;
  (* the space ratio must exceed 1: WF nodes are strictly larger *)
  List.iter
    (fun (s : R.series) ->
      List.iter
        (fun (_, y) -> Alcotest.(check bool) "ratio > 1" true (y > 1.0))
        s.points)
    fig10

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

(* The committed JSON files are written by Report and Suite: every
   string value sits on one line and contains no quote. *)
let read_file path = In_channel.with_open_bin path In_channel.input_all

let find_from s i pat =
  let n = String.length pat in
  let rec go i =
    if i + n > String.length s then None
    else if String.sub s i n = pat then Some i
    else go (i + 1)
  in
  go i

(* The values of every ["key": "string"] pair in [s], in order. *)
let string_values key s =
  let pat = Printf.sprintf "\"%s\": \"" key in
  let rec go i acc =
    match find_from s i pat with
    | None -> List.rev acc
    | Some j ->
        let v = j + String.length pat in
        let k = String.index_from s v '"' in
        go (k + 1) (String.sub s v (k - v) :: acc)
  in
  go 0 []

let committed file = read_file (Filename.concat ".." file)
let committed_labels file = string_values "label" (committed file)

let strip prefix labels =
  let p = prefix ^ ":" in
  List.filter_map
    (fun l ->
      if String.starts_with ~prefix:p l then
        Some (String.sub l (String.length p) (String.length l - String.length p))
      else None)
    labels

(* BENCH_stats.json keeps its own layout; its series are the run lines,
   the overhead table and the registry entries. *)
let stats_labels () =
  let s = committed "BENCH_stats.json" in
  let section from upto =
    let i = Option.get (find_from s 0 from) in
    let j = Option.value (find_from s i upto) ~default:(String.length s) in
    String.sub s i (j - i)
  in
  let runs = string_values "queue" (section "\"runs\"" "\"overhead\"") in
  let overhead = string_values "queue" (section "\"overhead\"" "\"metrics\"") in
  let metrics = string_values "name" (section "\"metrics\"" "\"no such key\"") in
  List.map (( ^ ) "seconds:") runs
  @ List.concat_map
      (fun p -> List.map (fun q -> p ^ ":" ^ q) overhead)
      [ "ratio"; "disabled_ns_per_op"; "enabled_ns_per_op" ]
  @ List.map (( ^ ) "metric:") metrics

(* The label set every row must emit: its committed BENCH_*.json's
   (polylog's cert_steps: rows come from bin, which adds the simulator);
   the paper's rows share BENCH_figures.json; extended and ablation have
   no file of their own there, so their pin is the hand-written list. *)
let expected_labels (row : S.t) =
  match row.name with
  | "fig7" | "fig8" | "fig9" | "fig10" ->
      strip row.name (committed_labels "BENCH_figures.json")
  | "extended" ->
      [ "LF"; "LF pooled"; "LF optimistic"; "base WF"; "opt WF (1)";
        "opt WF (2)"; "opt WF (1+2)"; "opt WF (1+2) pooled"; "WF fps";
        "WF fps pooled"; "WF ring"; "WF polylog"; "WF hazard-ptr";
        "WF universal"; "flat-combining"; "two-lock"; "mutex" ]
  | "ablation" -> [ "opt WF (1+2)"; "WF chunk-2"; "WF chunk-4"; "WF tuned" ]
  | "polylog" ->
      List.filter
        (fun l -> not (String.starts_with ~prefix:"cert_steps:" l))
        (committed_labels "BENCH_polylog.json")
  | "stats" -> stats_labels ()
  | _ -> committed_labels (Option.get row.json)

let tiny = { S.threads = [ 1; 2 ]; iters = 200; runs = 1; sizes = [ 1; 100 ] }

(* The committed files were written by [figures] with its batch series
   and by [latency-openloop]; here both run at a tiny size. *)
let at_tiny (row : S.t) =
  match row.name with
  | "figures" -> S.figures ~batch:8 ()
  | "latency-openloop" -> S.latency_openloop ~rates:[ 4000. ] ~events:200 ()
  | _ -> row

(* The x axis a label must cover at [tiny]. *)
let axis (row : S.t) label =
  let floats = List.map float_of_int in
  match row.name with
  | "fig10" -> floats tiny.sizes
  | "figures" when String.starts_with ~prefix:"fig10:" label -> floats tiny.sizes
  | "latency-openloop" -> [ 4000. ]
  | "stats" -> [ 2. ]
  | _ -> floats tiny.threads

(* Every row of the table, run at a tiny scale, emits exactly the label
   set of its committed BENCH_*.json, each label once, each series
   covering the requested x axis — so a registry or series edit that
   renames, drops or duplicates a line fails here. *)
let test_label_pins () =
  List.iter
    (fun row ->
      let row = at_tiny row in
      let series = row.run tiny in
      let labels = List.map (fun (s : R.series) -> s.label) series in
      Alcotest.(check (list string))
        (row.name ^ " labels")
        (List.sort compare (expected_labels row))
        (List.sort compare labels);
      Alcotest.(check int)
        (row.name ^ " unique labels")
        (List.length labels)
        (List.length (List.sort_uniq compare labels));
      let uncovered =
        List.concat_map
          (fun (s : R.series) ->
            List.filter_map
              (fun x ->
                if List.mem_assoc x s.points then None
                else Some (Printf.sprintf "%s at %g" s.label x))
              (axis row s.label))
          series
      in
      Alcotest.(check (list string)) (row.name ^ " covers its x axis") [] uncovered)
    S.all

(* The one writer records the host in every JSON file's meta. *)
let test_host_meta () =
  let path = Filename.temp_file "wfq_suite" ".json" in
  let row = { S.fig10 with json = Some path } in
  (match S.exec ~json:true row { S.quick with sizes = [ 1 ] } with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg);
  let meta = read_file path in
  Sys.remove path;
  List.iter
    (fun key ->
      Alcotest.(check bool)
        (key ^ " in meta") true
        (find_from meta 0 (Printf.sprintf "\"%s\": " key) <> None))
    [ "cores"; "ocaml"; "ocamlrunparam"; "minor_heap_words" ]

(* --- the guards: one passing and one failing series list each ------ *)

let series label pts = { R.label; points = pts }
let at xs y = List.map (fun x -> (x, y)) xs

let verdict name expect (row : S.t) scale data =
  Alcotest.(check bool) name expect (Result.is_ok (row.guard scale data))

let test_alloc_guard () =
  let words label y = series ("words_per_op:" ^ label) (at [ 1.; 2. ] y) in
  let data ?(lf_pooled = 4.) ~kp () =
    [
      words "LF" 10.; words "LF pooled" lf_pooled; words "opt WF (1+2)" kp;
      words "opt WF (1+2) pooled" 20.; words "WF fps" 30.;
      words "WF fps pooled" 2.;
    ]
  in
  verdict "36 words/op, pooled below" true S.alloc tiny (data ~kp:36. ());
  verdict "unpooled KP over 36 x 1.10" false S.alloc tiny (data ~kp:40. ());
  verdict "pooled not below unpooled" false S.alloc tiny
    (data ~lf_pooled:10. ~kp:36. ())

let test_ring_guard () =
  let data ring =
    [
      series "words_per_op:WF ring" ring;
      series "words_per_op:opt WF (1+2) pooled" (at [ 1.; 2.; 4. ] 5.);
      series "words_per_op:WF fps pooled" [ (1., 2.); (2., 2.); (4., 4.) ];
    ]
  in
  verdict "flat and below the pooled floors" true S.ring tiny
    (data (at [ 1.; 2.; 4. ] 3.5));
  (* the reading at 1/2/4 domains on a 2-core host *)
  verdict "not flat within 0.2" false S.ring tiny
    (data [ (1., 3.51); (2., 3.81); (4., 3.73) ])

let test_batch_guard () =
  let data native =
    [
      series "batch:WF fps per-item" [ (1., 1.0); (2., 1.0) ];
      series "batch:WF fps batch" [ (1., native); (2., 0.9) ];
    ]
  in
  let batched = S.figures ~batch:64 () in
  verdict "2x at 1 domain" true batched tiny (data 0.4);
  verdict "under 2x at 1 domain" false batched tiny (data 0.6);
  verdict "no batch requested" true (S.figures ()) tiny (data 0.6)

let test_sched_guard () =
  let row = S.sched () in
  let data ~p99 =
    List.concat_map
      (fun b ->
        [
          series ("throughput:" ^ b) (at [ 1.; 2. ] 1000.);
          series ("fiber_p50_ns:" ^ b) (at [ 1.; 2. ] 10.);
          series ("fiber_p99_ns:" ^ b) [ (1., 50.); (2., p99) ];
          series ("steals:" ^ b) (at [ 1.; 2. ] 0.);
          series ("steal_attempts:" ^ b) (at [ 1.; 2. ] 0.);
        ])
      [ "kp_opt12"; "fps_pooled"; "shard_rr2"; "ring" ]
  in
  verdict "headline positive on 1,2" true row tiny (data ~p99:50.);
  verdict "zero p99" false row tiny (data ~p99:0.);
  verdict "domain axis differs" false row { tiny with threads = [ 1; 2; 4 ] }
    (data ~p99:50.)

let test_openloop_guard () =
  let rates = [ 2000.; 5000. ] in
  let data ~p999 ~p99_high =
    List.map
      (fun (field, pts) -> series (field ^ ":kp-opt12") pts)
      [
        ("enq_p50", at rates 100.); ("enq_p99", at rates 200.);
        ("enq_p999", at rates 300.); ("sojourn_p50", at rates 1000.);
        ("sojourn_p99", [ (2000., 2000.); (5000., p99_high) ]);
        ("sojourn_p999", at rates p999); ("achieved_rate", rates |> List.map (fun r -> (r, r)));
      ]
  in
  let row ?knee_floor () =
    S.latency_openloop ~rates ?knee_floor ~backends:[ Wfq_core.Backends.find "kp-opt12" ] ()
  in
  verdict "ordered percentiles" true (row ()) tiny (data ~p999:10_000. ~p99_high:3000.);
  verdict "p99 above p999" false (row ()) tiny (data ~p999:2500. ~p99_high:3000.);
  verdict "knee above the floor" true (row ~knee_floor:4000. ()) tiny
    (data ~p999:100_000. ~p99_high:9000.);
  verdict "knee below the floor" false (row ~knee_floor:8000. ()) tiny
    (data ~p999:100_000. ~p99_high:9000.)

let test_stats_guard () =
  let one y = [ (2., y) ] in
  let data ~ratio ~steals =
    [ series "ratio:kp_opt12" (one ratio); series "ratio:fps" (one 0.99) ]
    @ List.map
        (fun (m, y) -> series ("metric:" ^ m) (one y))
        ([
           ("kp_opt12.phase_lag", 10.); ("fps_slow.slow_entries", 5.);
           ("fps_pooled.nodes.reused", 7.); ("registry.acquisitions", 3.);
         ]
        @ List.init 4 (fun i ->
              (Printf.sprintf "shard_rr4.shard%d.steals" i, steals)))
  in
  verdict "within budget, metrics present" true S.stats tiny
    (data ~ratio:1.01 ~steals:1.);
  verdict "ratio over budget" false S.stats tiny (data ~ratio:1.05 ~steals:1.);
  verdict "no shard steals" false S.stats tiny (data ~ratio:1.01 ~steals:0.)

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
          Alcotest.test_case "series label pins" `Slow test_label_pins;
          Alcotest.test_case "host meta in every JSON" `Quick test_host_meta;
        ] );
      ( "guards",
        [
          Alcotest.test_case "alloc" `Quick test_alloc_guard;
          Alcotest.test_case "ring" `Quick test_ring_guard;
          Alcotest.test_case "batch" `Quick test_batch_guard;
          Alcotest.test_case "sched" `Quick test_sched_guard;
          Alcotest.test_case "open-loop" `Quick test_openloop_guard;
          Alcotest.test_case "stats" `Quick test_stats_guard;
        ] );
    ]
