(* Open-loop load engine (lib/harness/{clock,arrivals,open_loop}.ml):
   deterministic arrival schedules, coordinated-omission-safe latency
   recording, the saturation knee, and the monotonic-clock contract the
   whole harness now times on. *)

module A = Wfq_harness.Arrivals
module OL = Wfq_harness.Open_loop
module Clock = Wfq_harness.Clock

let kp_opt12 () = Wfq_harness.Workload.spec "kp-opt12"

(* ------------------------------------------------------------------ *)
(* Clock                                                              *)
(* ------------------------------------------------------------------ *)

(* The satellite bugfix's pin: harness timing is CLOCK_MONOTONIC, so a
   backwards wall-clock step can never produce a negative sample. We
   cannot step the wall clock in a test, but we can pin the property
   the fix rests on — the source never goes backwards, ever, across
   many samples and across work of varying length. *)
let test_clock_monotone () =
  let prev = ref (Clock.now_ns ()) in
  for i = 1 to 100_000 do
    let t = Clock.now_ns () in
    if t < !prev then
      Alcotest.failf "clock regressed at sample %d: %d < %d" i t !prev;
    prev := t;
    if i mod 10_000 = 0 then Sys.opaque_identity (ignore (Gc.minor ()))
  done;
  (* deltas of back-to-back reads are non-negative by the same token *)
  let t0 = Clock.now_ns () in
  let t1 = Clock.now_ns () in
  Alcotest.(check bool) "delta non-negative" true (t1 - t0 >= 0)

let test_clock_wait_until () =
  let start = Clock.now_ns () in
  let target = start + 3_000_000 (* 3 ms: crosses the sleep+spin split *) in
  Clock.wait_until target;
  let now = Clock.now_ns () in
  Alcotest.(check bool) "released at or after the target" true (now >= target);
  (* a target already in the past returns immediately (no negative sleep) *)
  Clock.wait_until (now - 1_000_000);
  Alcotest.(check bool) "past target is a no-op" true
    (Clock.now_ns () - now < 1_000_000_000)

(* ------------------------------------------------------------------ *)
(* Arrival schedules                                                  *)
(* ------------------------------------------------------------------ *)

let test_poisson_schedule () =
  let rate = 100_000.0 and n = 20_000 in
  let s = A.generate A.Poisson ~seed:7 ~rate ~n in
  Alcotest.(check int) "n events" n (Array.length s);
  let prev = ref 0 in
  Array.iter
    (fun t ->
      Alcotest.(check bool) "gaps >= 1 ns, ascending" true (t > !prev);
      prev := t)
    s;
  (* long-run mean interarrival within 5% of 1/rate (n = 20k i.i.d.
     exponentials: the seeded draw below is well inside that) *)
  let mean_gap = float_of_int s.(n - 1) /. float_of_int n in
  let expect = 1e9 /. rate in
  Alcotest.(check bool)
    (Printf.sprintf "mean interarrival %.0f ~ %.0f" mean_gap expect)
    true
    (Float.abs (mean_gap -. expect) /. expect < 0.05);
  (* byte-for-byte determinism per seed; a different seed differs *)
  Alcotest.(check bool) "same seed reproduces" true
    (s = A.generate A.Poisson ~seed:7 ~rate ~n);
  Alcotest.(check bool) "different seed differs" false
    (s = A.generate A.Poisson ~seed:8 ~rate ~n)

(* The burst process pinned byte-for-byte: any change to the gap
   arithmetic, the RNG draw order, or the OFF-gap balancing shows up
   here as a changed schedule, not as a silently different workload. *)
let test_burst_schedule_pinned () =
  let s =
    A.generate
      (A.Burst { duty = 0.25; burst_len = 4 })
      ~seed:9 ~rate:1e6 ~n:12
  in
  Alcotest.(check (array int))
    "burst schedule (seed 9)"
    [|
      286; 363; 1306; 13689; 13911; 14973; 19796; 19850; 20132; 20543;
      20702; 21511;
    |]
    s;
  let p = A.generate A.Poisson ~seed:9 ~rate:1e6 ~n:8 in
  Alcotest.(check (array int)) "poisson schedule (seed 9)"
    [| 1146; 2535; 2843; 4379; 4683; 4804; 5841; 9948 |]
    p

let test_burst_long_run_rate () =
  (* The on/off balancing must keep the long-run mean at the offered
     rate: duty only reshapes the arrival process. *)
  let rate = 1e6 and n = 50_000 in
  let s = A.generate (A.Burst { duty = 0.2; burst_len = 16 }) ~seed:3 ~rate ~n in
  let mean_gap = float_of_int s.(n - 1) /. float_of_int n in
  let expect = 1e9 /. rate in
  Alcotest.(check bool)
    (Printf.sprintf "burst mean interarrival %.0f ~ %.0f" mean_gap expect)
    true
    (Float.abs (mean_gap -. expect) /. expect < 0.10);
  (* and it must actually burst: the minimum gap is far below the mean *)
  let min_gap = ref max_int in
  let prev = ref 0 in
  Array.iter
    (fun t ->
      min_gap := min !min_gap (t - !prev);
      prev := t)
    s;
  Alcotest.(check bool) "ON gaps ~ duty * mean" true
    (float_of_int !min_gap < expect /. 2.0)

let test_burst_validation () =
  Alcotest.check_raises "duty > 1 rejected"
    (Invalid_argument "Arrivals.generate: duty must be in (0, 1]")
    (fun () ->
      ignore (A.generate (A.Burst { duty = 1.5; burst_len = 4 }) ~seed:0
                ~rate:1e6 ~n:4));
  Alcotest.check_raises "rate <= 0 rejected"
    (Invalid_argument "Arrivals.generate: rate must be positive")
    (fun () -> ignore (A.generate A.Poisson ~seed:0 ~rate:0.0 ~n:4))

let test_split_skew () =
  let schedule = A.generate A.Poisson ~seed:11 ~rate:1e6 ~n:10_000 in
  (* weights: normalized, uniform at skew 0, front-loaded at skew 2 *)
  let w0 = A.weights ~workers:4 ~skew:0.0 in
  Array.iter (fun w -> Alcotest.(check (float 1e-9)) "uniform" 0.25 w) w0;
  let w2 = A.weights ~workers:4 ~skew:2.0 in
  Alcotest.(check (float 1e-9)) "normalized" 1.0
    (Array.fold_left ( +. ) 0.0 w2);
  Alcotest.(check bool) "front-loaded" true (w2.(0) > 4.0 *. w2.(3));
  let subs = A.split schedule ~workers:4 ~skew:2.0 ~seed:5 in
  (* partition: every event exactly once, each row in global order *)
  Alcotest.(check int) "partitioned" (Array.length schedule)
    (Array.fold_left (fun a s -> a + Array.length s) 0 subs);
  let all = Array.concat (Array.to_list subs) in
  Array.sort compare all;
  Alcotest.(check bool) "multiset preserved" true (all = schedule);
  Array.iter
    (fun sub ->
      let prev = ref (-1) in
      Array.iter
        (fun t ->
          Alcotest.(check bool) "row ascending" true (t > !prev);
          prev := t)
        sub)
    subs;
  (* skew 2 at 4 workers: producer 0 carries the clear majority *)
  Alcotest.(check bool) "producer 0 is hot" true
    (Array.length subs.(0) > 2 * Array.length subs.(3));
  Alcotest.(check bool) "split deterministic" true
    (subs = A.split schedule ~workers:4 ~skew:2.0 ~seed:5)

(* ------------------------------------------------------------------ *)
(* Coordinated omission: the deterministic pin                        *)
(* ------------------------------------------------------------------ *)

(* One execution, two measurements. The virtual-time simulation drives
   a real registry backend through a stall and reports the same
   completions twice: from the intended send time (open loop — this
   PR's engine) and from the service start (closed loop — a
   timestamp-around-the-call harness). Closed-loop must not see the
   queueing delay the stall caused; open-loop must. *)
let test_simulate_stall_coordinated_omission () =
  let events = 2_000 and rate = 100_000.0 (* 10 us gaps *) in
  let stall = { OL.victim = 0; after = 100; duration_ns = 5_000_000 } in
  let r =
    OL.simulate ~service_ns:1_000 ~stall ~pattern:A.Poisson ~seed:13 ~rate
      ~events (kp_opt12 ())
  in
  (* closed loop: every sample is a bare service time except the one
     operation that contained the stall — the tail stays flat, the
     queueing delay is omitted *)
  Alcotest.(check (float 0.0)) "closed-loop p50 = service" 1_000.0
    r.OL.closed_loop.OL.p50;
  Alcotest.(check (float 0.0)) "closed-loop p99 = service" 1_000.0
    r.OL.closed_loop.OL.p99;
  (* open loop: the ~500 arrivals during the 5 ms outage each carry the
     queueing delay they suffered *)
  Alcotest.(check bool)
    (Printf.sprintf "open-loop p99 (%.0f ns) includes queueing delay"
       r.OL.open_loop.OL.p99)
    true
    (r.OL.open_loop.OL.p99 > 100.0 *. r.OL.closed_loop.OL.p99);
  Alcotest.(check bool) "open-loop max >= the stall itself" true
    (r.OL.open_loop.OL.max >= float_of_int stall.OL.duration_ns);
  (* same execution, so the two sides agree on sample counts *)
  Alcotest.(check int) "samples" events r.OL.open_loop.OL.samples;
  Alcotest.(check int) "samples (closed)" events r.OL.closed_loop.OL.samples

let test_simulate_no_stall_agrees () =
  (* Without a stall and with service << interarrival, the queue is
     almost always idle at each arrival: both measurements see mostly
     bare service times and the medians coincide. *)
  let r =
    OL.simulate ~service_ns:1_000 ~pattern:A.Poisson ~seed:21 ~rate:10_000.0
      ~events:2_000 (kp_opt12 ())
  in
  Alcotest.(check (float 0.0)) "open p50 = closed p50 when unqueued"
    r.OL.closed_loop.OL.p50 r.OL.open_loop.OL.p50;
  (* FIFO was checked internally for every event; also across backends *)
  List.iter
    (fun id ->
      let r =
        OL.simulate ~service_ns:500 ~pattern:A.Poisson ~seed:2 ~rate:1e5
          ~events:500
          (Wfq_harness.Workload.spec id)
      in
      Alcotest.(check bool) (id ^ " simulated") true
        (r.OL.open_loop.OL.samples = 500))
    [ "fps-pooled"; "ring"; "polylog" ]

(* ------------------------------------------------------------------ *)
(* Saturation knee                                                    *)
(* ------------------------------------------------------------------ *)

let test_knee () =
  (* knee = first load whose p99 exceeds mult x the lowest load's *)
  let curve = [ (1_000.0, 10.0); (2_000.0, 25.0); (4_000.0, 50.0) ] in
  Alcotest.(check (option (float 0.0))) "crosses at 4k" (Some 4_000.0)
    (OL.knee ~mult:4.0 curve);
  Alcotest.(check (option (float 0.0))) "tighter mult crosses earlier"
    (Some 2_000.0)
    (OL.knee ~mult:2.0 curve);
  Alcotest.(check (option (float 0.0))) "never crosses" None
    (OL.knee ~mult:10.0 curve);
  (* input order must not matter: the baseline is the lowest load *)
  Alcotest.(check (option (float 0.0))) "unsorted input" (Some 4_000.0)
    (OL.knee ~mult:4.0 (List.rev curve));
  (* the baseline point itself can never be the knee (p99 = 1x > mult
     requires mult < 1, which is not a regression definition) *)
  Alcotest.(check (option (float 0.0))) "single point" None
    (OL.knee ~mult:4.0 [ (1_000.0, 99.0) ]);
  Alcotest.check_raises "empty curve rejected"
    (Invalid_argument "Open_loop.knee: empty curve") (fun () ->
      ignore (OL.knee []))

(* ------------------------------------------------------------------ *)
(* Real-domain engine                                                 *)
(* ------------------------------------------------------------------ *)

let test_run_smoke () =
  let cfg =
    {
      OL.default_config with
      OL.producers = 2;
      consumers = 1;
      rate = 50_000.0;
      events = 600;
      skew = 1.0;
      seed = 3;
    }
  in
  let reg = Wfq_obsv.Metrics.create () in
  let r = OL.run ~metrics:(reg, "ol") cfg (kp_opt12 ()) in
  (* conservation was checked inside run (raises on violation) *)
  Alcotest.(check int) "every event's enqueue sampled" 600
    r.OL.enq.OL.samples;
  Alcotest.(check int) "every event's sojourn sampled" 600
    r.OL.sojourn.OL.samples;
  Alcotest.(check bool) "duration positive" true (r.OL.duration_s > 0.0);
  Alcotest.(check bool) "achieved rate positive" true
    (r.OL.achieved_rate > 0.0);
  Alcotest.(check bool) "sojourn >= enqueue at p50" true
    (r.OL.sojourn.OL.p50 >= r.OL.enq.OL.p50);
  (* the histograms registered for the metrics registry hold the same
     recording: same counts, and the bucketed p50 within the bucket
     representative's 1.5x of the exact p50 *)
  Alcotest.(check (option int)) "enq histogram registered" (Some 600)
    (Wfq_obsv.Metrics.value reg "ol.enq_latency_ns");
  Alcotest.(check (option int)) "sojourn histogram registered" (Some 600)
    (Wfq_obsv.Metrics.value reg "ol.sojourn_ns");
  let hp50 = Wfq_obsv.Histogram.percentile r.OL.sojourn_hist 50.0 in
  let exact = r.OL.sojourn.OL.p50 in
  Alcotest.(check bool)
    (Printf.sprintf "histogram p50 %.0f within 1.5x of exact %.0f" hp50 exact)
    true
    (exact <= 1.0 || (hp50 /. exact <= 1.5 && exact /. hp50 <= 2.0))

let test_run_stall_injection () =
  (* The real-domain stall: the only consumer goes dark for 20 ms after
     its 50th dequeue while the schedule keeps arriving at 25 us gaps,
     so the remaining events queue up behind the outage. The open-loop
     sojourn tail must contain that delay. *)
  let stall = { OL.victim = 0; after = 50; duration_ns = 20_000_000 } in
  let cfg =
    {
      OL.default_config with
      OL.rate = 40_000.0;
      events = 400;
      seed = 17;
      stall = Some stall;
    }
  in
  let r = OL.run cfg (kp_opt12 ()) in
  Alcotest.(check int) "all events accounted" 400 r.OL.sojourn.OL.samples;
  Alcotest.(check bool)
    (Printf.sprintf "sojourn p99 (%.1f ms) includes the injected outage"
       (r.OL.sojourn.OL.p99 /. 1e6))
    true
    (r.OL.sojourn.OL.p99 >= float_of_int stall.OL.duration_ns /. 4.0);
  Alcotest.(check bool) "max >= half the outage" true
    (r.OL.sojourn.OL.max >= float_of_int stall.OL.duration_ns /. 2.0)

let test_run_validation () =
  let impl = kp_opt12 () in
  Alcotest.check_raises "non-positive producers"
    (Invalid_argument "Open_loop.run: producers/consumers must be positive")
    (fun () ->
      ignore (OL.run { OL.default_config with OL.producers = 0 } impl));
  Alcotest.check_raises "stall victim out of range"
    (Invalid_argument "Open_loop.run: stall victim out of range") (fun () ->
      ignore
        (OL.run
           {
             OL.default_config with
             OL.stall = Some { OL.victim = 5; after = 0; duration_ns = 1 };
           }
           impl));
  Alcotest.check_raises "non-positive rate"
    (Invalid_argument "Open_loop.run: rate must be positive") (fun () ->
      ignore (OL.run { OL.default_config with OL.rate = 0.0 } impl))

let () =
  Alcotest.run "openloop"
    [
      ( "clock",
        [
          Alcotest.test_case "monotone across 100k samples" `Quick
            test_clock_monotone;
          Alcotest.test_case "wait_until hits the target" `Quick
            test_clock_wait_until;
        ] );
      ( "arrivals",
        [
          Alcotest.test_case "poisson: mean, order, determinism" `Quick
            test_poisson_schedule;
          Alcotest.test_case "burst schedule pinned byte-for-byte" `Quick
            test_burst_schedule_pinned;
          Alcotest.test_case "burst long-run rate" `Quick
            test_burst_long_run_rate;
          Alcotest.test_case "validation" `Quick test_burst_validation;
          Alcotest.test_case "skewed split" `Quick test_split_skew;
        ] );
      ( "coordinated-omission",
        [
          Alcotest.test_case "stall: open sees delay, closed omits it"
            `Quick test_simulate_stall_coordinated_omission;
          Alcotest.test_case "no stall: measurements agree" `Quick
            test_simulate_no_stall_agrees;
        ] );
      ("knee", [ Alcotest.test_case "saturation knee" `Quick test_knee ]);
      ( "engine",
        [
          Alcotest.test_case "real-domain smoke" `Quick test_run_smoke;
          Alcotest.test_case "real-domain stall injection" `Quick
            test_run_stall_injection;
          Alcotest.test_case "validation" `Quick test_run_validation;
        ] );
    ]
