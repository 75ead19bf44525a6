(* Benchmark CLI: one subcommand per row of Wfq_harness.Suite's table.
   Every row prints one table per series prefix (--csv adds CSV blocks),
   writes its BENCH_*.json with --json (rows that have one) and exits 1
   when its guard fails.

     wfq_bench fig7 --threads 1,2,4,8 --iters 100000 --runs 5
     wfq_bench fig10 --sizes 1,100,10000
     OCAMLRUNPARAM='s=8M' wfq_bench figures --batch 64 --json
*)

open Cmdliner
module S = Wfq_harness.Suite
module R = Wfq_harness.Report

let pos_int = Spec_arg.pos_int

let opt c name ~docv doc =
  Arg.(value & opt (some c) None & info [ name ] ~docv ~doc)

let threads_arg =
  opt (Arg.list pos_int) "threads" ~docv:"LIST"
    "Comma-separated thread counts (the x axis)."

let iters_arg = opt pos_int "iters" ~docv:"N" "Iterations per thread."

let runs_arg =
  opt pos_int "runs" ~docv:"N"
    "Repetitions per data point; a point is their median (paper: 10)."

let sizes_arg =
  opt (Arg.list pos_int) "sizes" ~docv:"LIST"
    "Comma-separated initial queue sizes (fig. 10)."

let paper_arg =
  let doc = "Use the paper's full parameters (1..16 threads, 1M iters, 10 runs)." in
  Arg.(value & flag & info [ "paper" ] ~doc)

let csv_arg =
  let doc = "Also print machine-readable CSV blocks." in
  Arg.(value & flag & info [ "csv" ] ~doc)

let json_arg path =
  let doc =
    "Also write the series as machine-readable JSON to " ^ path
    ^ " in the current directory, with the host in its meta."
  in
  Arg.(value & flag & info [ "json" ] ~doc)

let override (base : S.scale) threads iters runs =
  {
    base with
    threads = Option.value threads ~default:base.threads;
    iters = Option.value iters ~default:base.iters;
    runs = Option.value runs ~default:base.runs;
  }

(* The shared argument set: --paper, --threads, --iters, --runs, --sizes
   over the row's defaults. *)
let scale_t (row : S.t) =
  Term.(
    const (fun paper threads iters runs sizes ->
        let s = override (if paper then S.paper else row.default) threads iters runs in
        { s with sizes = Option.value sizes ~default:s.sizes })
    $ paper_arg $ threads_arg $ iters_arg $ runs_arg $ sizes_arg)

let run_row row scale csv json =
  match S.exec ~csv ~json row scale with
  | Ok _ -> ()
  | Error msg ->
      prerr_endline msg;
      exit 1

let cmd ?(csv = csv_arg) ?row_t ?scale (row : S.t) =
  let row_t = Option.value row_t ~default:(Term.const row) in
  let scale = Option.value scale ~default:(scale_t row) in
  let json = Option.fold ~none:(Term.const false) ~some:json_arg row.json in
  Cmd.v (Cmd.info row.name ~doc:row.doc) Term.(const run_row $ row_t $ scale $ csv $ json)

let figures_cmd =
  let batch_arg =
    opt pos_int "batch" ~docv:"K"
      "Also run the batch-native decomposition at this batch size: the \
       per-item WF fps baseline vs the native enqueue_batch/dequeue_batch of \
       the fps, KP, ring and sharded backends on the batch pairs workload \
       (docs/BATCHING.md). Adds batch:-prefixed series to the tables and the \
       JSON."
  in
  cmd (S.figures ())
    ~row_t:Term.(const (fun batch -> S.figures ?batch ()) $ batch_arg)

(* Polylog crossover (Polylog_queue vs the KP family): the measured half
   is the harness row's interleaved pairs sweep; the asymptotic half is a
   certified step-bound-vs-p table built from Wfq_sim.Check.certify on
   the simulator plane.

   The certification scenario is one active enq+deq fiber among p
   registered threads — deterministic, so DPOR certifies it from a
   single schedule, and it isolates exactly the structural
   p-dependence the paper's bounds are about: the base KP queue scans
   all p state slots per operation (Phase_scan + Help_all) even with
   nobody else running, so its certified bound is Theta(p) (measured:
   43 + 4p), while the polylog tree only grows by one level per
   doubling of p (one +~71-step propagate stage), i.e. Theta(log p)
   with large constants. The table runs p up to 128, past their
   crossover. kp-opt12 and fps appear as flat reference rows: their
   optimizations amortize the helping scan off the solo path (the
   adversarial O(p) cost remains, but needs p concurrently pending
   ops, which no tractable exhaustive exploration reaches — the
   contended p=2 certificates live in wfq_check's litmus library and
   test_polylog instead).

   The growth guard — polylog's certified bound must grow strictly
   slower from the smallest to the largest p than kp-base's — is the
   row's guard. *)

module Ck = Wfq_sim.Check

let certified_bound spec ~p =
  let scripts = [ `Enq 1; `Deq ] :: List.init (p - 1) (fun _ -> []) in
  match
    Ck.certify ~mode:Ck.Dpor ~max_schedules:10_000 ~bound:1_000_000
      ~queue:(Ck.of_spec spec) ~scripts ()
  with
  | Ok c -> c.Ck.observed_bound
  | Error msg ->
      Printf.eprintf "certify %s at p=%d failed: %s\n%!" spec p msg;
      exit 2

let cert_ps = [ 2; 4; 8; 16; 32; 64; 128 ]

(* One series per queue: the certified bound at each p. *)
let cert_table () =
  List.map
    (fun (id, ops) ->
      {
        R.label = "cert_steps:" ^ id;
        points =
          List.map (fun p -> (float_of_int p, float_of_int (ops ~p))) cert_ps;
      })
    [
      (* the paper's base configuration: its Help_all + Phase_scan slow
         path is where the Theta(p) scans live *)
      ("kp-base", certified_bound "kp-opt12?help=all&phase=scan");
      ("kp-opt12", certified_bound "kp-opt12");
      ("fps-pooled", certified_bound "fps-pooled");
      ("polylog", certified_bound "polylog");
    ]

let p_lo = List.hd cert_ps
let p_hi = List.nth cert_ps (List.length cert_ps - 1)

let cert_at series id p =
  List.assoc (float_of_int p)
    (List.find (fun s -> s.R.label = "cert_steps:" ^ id) series).R.points

(* Whether polylog's certified bound grows strictly slower than
   kp-base's from the smallest to the largest p, and the summary. *)
let growth series =
  let g id = cert_at series id p_hi -. cert_at series id p_lo in
  let poly = g "polylog" and kp = g "kp-base" in
  ( poly < kp,
    Printf.sprintf "polylog +%.0f vs kp-base +%.0f steps (p=%d->%d)" poly kp
      p_lo p_hi )

let polylog =
  let base = S.polylog in
  let run scale =
    let series = base.run scale @ cert_table () in
    let at = cert_at series in
    (match List.find_opt (fun p -> at "polylog" p < at "kp-base" p) cert_ps with
    | Some p ->
        Printf.printf
          "crossover: polylog's certified bound drops below kp-base's at \
           p=%d (%.0f vs %.0f steps)\n%!"
          p (at "polylog" p) (at "kp-base" p)
    | None ->
        Printf.printf "crossover: not reached by p=%d (polylog %.0f vs kp-base \
                       %.0f steps)\n%!"
          p_hi (at "polylog" p_hi) (at "kp-base" p_hi));
    series
  in
  let meta scale series =
    let ok, summary = growth series in
    base.meta scale series
    @ [
        ( "cert_scenario",
          "one active enq+deq fiber among p registered threads (structural \
           per-op p-dependence; contended p=2 certificates live in \
           wfq_check dpor --queue polylog)" );
        ("cert_mode", "Dpor, exhaustive (deterministic scenario)");
        ("cert_growth_guard", summary ^ if ok then ": ok" else ": FAILED");
      ]
  in
  let guard _ series =
    match growth series with true, _ -> Ok () | false, summary -> Error summary
  in
  {
    base with
    doc =
      base.doc
      ^ " Adds the certified step-bound-vs-p table (cert_steps: series; \
         Wfq_sim.Check.certify, one active fiber among p threads, up to \
         p=128). Exits 1 unless polylog's certified bound grows strictly \
         slower than base KP's.";
    run;
    meta;
    guard;
  }

let sched_cmd =
  let row = S.sched () in
  let domains_arg =
    opt (Arg.list pos_int) "domains" ~docv:"LIST"
      "Comma-separated worker-domain counts (default 1,2,4)."
  in
  let requests_arg =
    opt pos_int "requests" ~docv:"N" "Request fibers per run (default 200)."
  in
  let fanout_arg =
    opt pos_int "fanout" ~docv:"N"
      "Subfibers spawned and awaited per request (default 8)."
  in
  let work_arg =
    opt Arg.int "work" ~docv:"N"
      "CPU-burn loop iterations per request stage (default 400)."
  in
  cmd row
    ~row_t:
      Term.(
        const (fun requests fanout work -> S.sched ?requests ?fanout ?work ())
        $ requests_arg $ fanout_arg $ work_arg)
    ~scale:
      Term.(
        const (fun domains runs -> override row.default domains None runs)
        $ domains_arg $ runs_arg)

(* The stats row snapshots one configuration rather than sweeping an
   axis, so its --threads is a single count. *)
let stats_cmd =
  let threads_arg =
    opt pos_int "threads" ~docv:"N" "Number of worker domains (default 4)."
  in
  cmd S.stats ~csv:(Term.const false)
    ~scale:
      Term.(
        const (fun threads iters runs ->
            override S.stats.default (Option.map (fun n -> [ n ]) threads) iters runs)
        $ threads_arg $ iters_arg $ runs_arg)

(* Open-loop latency sweep (docs/LATENCY.md): seeded arrival schedules
   drive registry backends at fixed offered loads, every latency
   measured from the event's intended send time, so a saturated or
   stalled queue shows the queueing delay it caused instead of silently
   throttling the load generator (coordinated omission). *)
module OL = Wfq_harness.Open_loop
module Arr = Wfq_harness.Arrivals

let openloop_cmd =
  let row = S.latency_openloop () in
  let arg c default name ~docv doc =
    Arg.(value & opt c default & info [ name ] ~docv ~doc)
  in
  let config_t =
    Term.(
      const (fun producers consumers pattern duty burst_len skew seed stall_us
                 stall_after ->
          {
            OL.default_config with
            producers;
            consumers;
            pattern =
              (match pattern with
              | `Poisson -> Arr.Poisson
              | `Burst -> Arr.Burst { duty; burst_len });
            skew;
            seed;
            stall =
              (if stall_us > 0 then
                 Some
                   { OL.victim = 0; after = stall_after; duration_ns = stall_us * 1000 }
               else None);
          })
      $ arg pos_int 1 "producers" ~docv:"N"
          "Producer domains following the arrival schedule."
      $ arg pos_int 1 "consumers" ~docv:"N" "Consumer domains."
      $ arg
          (Arg.enum [ ("poisson", `Poisson); ("burst", `Burst) ])
          `Poisson "pattern" ~docv:"NAME"
          "Arrival pattern: $(b,poisson) (exponential interarrivals) or \
           $(b,burst) (on/off Markov-modulated; see --duty, --burst-len)."
      $ arg Arg.float 0.2 "duty" ~docv:"F"
          "Burst pattern: fraction of time spent in the ON state."
      $ arg pos_int 32 "burst-len" ~docv:"N"
          "Burst pattern: mean events per ON burst."
      $ arg Arg.float 0.0 "skew" ~docv:"F"
          "Producer-affinity skew: events are assigned to producers with \
           Zipf-like weights (i+1)^-skew; 0 is uniform."
      $ arg Arg.int 42 "seed" ~docv:"N"
          "Schedule seed (deterministic arrivals per seed)."
      $ arg Arg.int 0 "stall-us" ~docv:"US"
          "Inject a slow consumer: consumer 0 goes dark for this many \
           microseconds after its --stall-after-th dequeue (0 disables)."
      $ arg Arg.int 100 "stall-after" ~docv:"N"
          "Dequeues by consumer 0 before the injected stall.")
  in
  let row_t =
    Term.(
      const (fun config rates events knee_mult knee_floor backends ->
          S.latency_openloop ~config ?rates ?events ~knee_mult ?knee_floor ?backends ())
      $ config_t
      $ opt (Arg.list Spec_arg.pos_float) "rates" ~docv:"LIST"
          "Comma-separated offered loads in events/second (x axis; default \
           2000,4000,8000,16000)."
      $ opt pos_int "events" ~docv:"N" "Events per (backend, rate) point (default 4000)."
      $ arg Arg.float 4.0 "knee-mult" ~docv:"F"
          "Saturation-knee multiplier: the knee is the first offered load \
           whose sojourn p99 exceeds this multiple of the lowest load's p99."
      $ opt Arg.float "knee-floor" ~docv:"RATE"
          "Regression gate: exit 1 if any backend's saturation knee falls \
           below this offered load (events/s). A backend whose tail never \
           crosses the knee threshold passes."
      $ opt (Arg.list Spec_arg.conv) "backends" ~docv:"LIST"
          "Comma-separated backend specs to sweep (default: every registered \
           backend outside the baseline family; see --list-backends and \
           docs/BACKENDS.md).")
  in
  cmd row ~csv:(Term.const false) ~row_t ~scale:(Term.const row.default)

(* [all] (figures plus extended) is gone; without this hidden command
   cmdliner would resolve it as a prefix of [alloc]. *)
let removed_all =
  Cmd.v
    (Cmd.info "all" ~docs:Manpage.s_none)
    Term.(ret (const (`Error (false, "'all' was removed: run 'figures' and 'extended'"))))

let cmds =
  List.map cmd S.[ fig7; fig8; fig9; fig10; extended; ablation ]
  @ [ figures_cmd ]
  @ List.map cmd S.[ shard; fps; alloc; ring ]
  @ [ cmd polylog; sched_cmd; stats_cmd; openloop_cmd; removed_all ]

(* wfq_bench --list-backends: the registry, one row per backend — the
   single source of truth the benches, the conformance battery, the
   shard front-end and the scheduler all instantiate from. *)
let print_backends () =
  Printf.printf "%-16s %-22s %-8s %-10s %s\n" "id" "label" "family"
    "capacity" "sim";
  List.iter
    (fun (module B : Wfq_core.Queue_intf.BACKEND) ->
      Printf.printf "%-16s %-22s %-8s %-10s %s\n" B.id B.label B.family
        (match B.capacity with
        | None -> "unbounded"
        | Some c -> string_of_int c)
        (if B.sim_safe then "yes" else "no"))
    (Wfq_core.Backends.all ())

let list_backends_arg =
  let doc =
    "List every backend registered in Wfq_core.Backends (id, label, \
     family, capacity, simulator-safety) and exit."
  in
  Arg.(value & flag & info [ "list-backends" ] ~doc)

let default =
  Term.(
    ret
      (const (fun list ->
           if list then begin
             print_backends ();
             `Ok ()
           end
           else `Help (`Pager, None))
      $ list_backends_arg))

let () =
  let info =
    Cmd.info "wfq_bench" ~version:"1.0"
      ~doc:
        "Benchmarks for the Kogan-Petrank wait-free queue reproduction \
         (PPoPP 2011)."
  in
  exit (Cmd.eval (Cmd.group ~default info cmds))
