(* Benchmark executable regenerating every figure of the paper's
   evaluation section (the fig7-fig10, extended and ablation rows of
   Wfq_harness.Suite), plus Bechamel micro-benchmarks (one group per
   figure) measuring per-operation cost and allocation.

   Usage:
     dune exec bench/main.exe               # quick scale (default)
     dune exec bench/main.exe -- --paper    # the paper's parameters
     dune exec bench/main.exe -- --skip-micro   # completion-time only
     dune exec bench/main.exe -- --csv      # also emit CSV blocks

   The completion-time tables are the data behind the paper's plots; see
   EXPERIMENTS.md for paper-vs-measured commentary. *)

open Bechamel
module F = Wfq_harness.Figures
module S = Wfq_harness.Suite
module W = Wfq_harness.Workload
module Bks = Wfq_core.Backends

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

(* Per-operation enqueue-dequeue pair on a persistent queue (size stays
   bounded), one closure per algorithm. *)
let pair_op (queue : W.queue) =
  let q = queue.make ~num_threads:1 in
  let i = ref 0 in
  Staged.stage (fun () ->
      incr i;
      q.enq ~tid:0 !i;
      ignore (q.deq ~tid:0))

(* Strictly alternating enq/deq over a prefilled queue: the single-thread
   stand-in for the 50% enqueues mix with a stable queue size. *)
let alternating_op (queue : W.queue) =
  let q = queue.make ~num_threads:1 in
  for i = 1 to 1000 do
    q.enq ~tid:0 i
  done;
  let i = ref 0 in
  Staged.stage (fun () ->
      incr i;
      if !i land 1 = 0 then q.enq ~tid:0 !i else ignore (q.deq ~tid:0))

(* Enqueue-only: its minor-allocation profile is the per-node footprint
   that Figure 10 is about. *)
let enq_op (queue : W.queue) =
  let q = queue.make ~num_threads:1 in
  let i = ref 0 in
  Staged.stage (fun () ->
      incr i;
      q.enq ~tid:0 !i)

let micro_groups =
  [
    ("fig7-pairs", F.fig7_series, pair_op);
    ("fig8-50pc-enq", F.fig7_series, alternating_op);
    ("fig9-optimizations", F.fig9_series, pair_op);
    ("fig10-enqueue-alloc", F.fig7_series @ [ W.spec "kp-hp" ], enq_op);
  ]

let run_micro () =
  print_endline "== Bechamel micro-benchmarks (single-thread per-op cost) ==";
  (* Bechamel's monotonic_clock instance reads the same CLOCK_MONOTONIC
     source as Wfq_harness.Clock, so per-op estimates here and the
     harness's latency samples (Latency, Open_loop) are directly
     comparable — no wall-clock/monotonic mismatch between stages. *)
  let clock = Toolkit.Instance.monotonic_clock in
  let alloc = Toolkit.Instance.minor_allocated in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None ()
  in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| "run" |]
  in
  List.iter
    (fun (group, impls, op) ->
      let tests =
        List.map (fun (q : W.queue) -> Test.make ~name:q.label (op q)) impls
      in
      let grouped = Test.make_grouped ~name:group tests in
      let raw = Benchmark.all cfg [ clock; alloc ] grouped in
      let times = Analyze.all ols clock raw in
      let allocs = Analyze.all ols alloc raw in
      let estimate results name =
        match Option.bind (Hashtbl.find_opt results name) Analyze.OLS.estimates with
        | Some (e :: _) -> e
        | _ -> nan
      in
      Printf.printf "\n[%s]\n" group;
      List.iter
        (fun name ->
          Printf.printf "  %-28s %10.1f ns/op %10.1f minor-words/op\n" name
            (estimate times name) (estimate allocs name))
        (List.sort compare (List.of_seq (Hashtbl.to_seq_keys times))))
    micro_groups;
  flush stdout

(* ------------------------------------------------------------------ *)
(* Shared-memory operation profiles (cost model, §3.3)                 *)
(* ------------------------------------------------------------------ *)

module C = Wfq_primitives.Counted_atomic
module CA = Wfq_primitives.Counted_atomic.Make (Wfq_primitives.Real_atomic)

(* Atomic reads/writes/CAS per uncontended operation, at two thread-count
   settings — the table that explains Figure 9: the base algorithm's
   per-operation work scales with num_threads, the optimized one's does
   not. *)
let run_profiles () =
  print_endline
    "\n== Shared-memory operation profile (uncontended; reads/writes/CAS \
     per op) ==";
  let profile f =
    CA.reset ();
    f ();
    CA.snapshot ()
  in
  let case name spec num_threads =
    let q : int Wfq_core.Queue_intf.instance =
      Bks.instantiate_with (module CA) (Bks.find spec) ~num_threads ()
    in
    let enq = profile (fun () -> q.enq ~tid:0 1) in
    q.enq ~tid:0 2;
    let deq = profile (fun () -> ignore (q.deq ~tid:0)) in
    Printf.printf "  %-22s enq: %-42s\n  %22s deq: %-42s\n"
      (Printf.sprintf "%s (n=%d)" name num_threads)
      (Format.asprintf "%a" C.pp enq)
      ""
      (Format.asprintf "%a" C.pp deq)
  in
  case "LF (Michael-Scott)" "lf" 1;
  case "LF optimistic (LMS)" "lms" 1;
  List.iter (case "base WF" "kp-opt12?help=all&phase=scan") [ 1; 8; 16 ];
  List.iter (case "opt WF (1+2)" "kp-opt12") [ 1; 16 ];
  flush stdout

(* ------------------------------------------------------------------ *)
(* Completion-time figures (the paper's actual plots)                  *)
(* ------------------------------------------------------------------ *)

(* The paper's rows of the benchmark table, through the same runner as
   [wfq_bench]; the paper's figures also get a shape chart. *)
let run_figures ~(scale : S.scale) ~csv () =
  Printf.printf
    "\n== Completion-time figures ==\nthreads: %s; %d iterations/thread; %d \
     runs per point (median)\n"
    (String.concat "," (List.map string_of_int scale.threads))
    scale.iters scale.runs;
  List.iter
    (fun ((row : S.t), chart) ->
      match S.exec ~csv row scale with
      | Ok series ->
          if chart then
            Wfq_harness.Chart.print ~title:(row.title ^ " (shape)") series
      | Error msg -> prerr_endline msg)
    [
      (S.fig7, true); (S.fig8, true); (S.fig9, true); (S.fig10, true);
      (S.extended, false); (S.ablation, false);
    ]

let () =
  let args = Array.to_list Sys.argv in
  let has flag = List.mem flag args in
  let scale = if has "--paper" then S.paper else S.quick in
  Printf.printf
    "wait-free queue benchmarks (Kogan-Petrank PPoPP'11 reproduction)\n\
     host: %d recommended domain(s)\n"
    (Domain.recommended_domain_count ());
  (* Total wall time on the shared monotonic clock — immune to NTP
     steps mid-run, unlike the Unix.gettimeofday this used to read. *)
  let t0 = Wfq_harness.Clock.now_s () in
  if not (has "--skip-micro") then run_micro ();
  run_profiles ();
  if not (has "--skip-figures") then run_figures ~scale ~csv:(has "--csv") ();
  Printf.printf "\ntotal bench time: %.1f s (monotonic)\n"
    (Wfq_harness.Clock.now_s () -. t0)
