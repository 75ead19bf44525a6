(* Scheduler test suite, in three tiers:

   1. Deterministic single-worker unit tests on real atomics: the
      [step]/[drain] core makes fiber interleaving a plain function of
      the run-queue's FIFO order, so spawn/yield/await orderings, the
      await fast path, exception routing and fiber-count conservation
      are all pinned exactly.
   2. Stealing: the deterministic 3-worker steal test pinning that an
      idle worker's sweep visits victims in {!Wfq_shard.Steal_order}
      order, the hunger protocol step by step (a failed lap raises the
      flag, the owner publishes the oldest half of its private FIFO,
      the thief steals), real parallel runs at 4 domains with
      conservation checks, and a 64-slot ring run-queue fanned out to
      10x its capacity, which must never let [Ring_full] escape.
   3. The simulator plane: the same functor instantiated over
      [Sim_atomic], first deterministically (forwarding of the sim's
      yield-per-access effects through the scheduler's shallow
      handlers), then DPOR litmuses for the racy hand-offs the
      scheduler adds on top of the queues — steal (two workers racing
      to dequeue the same fiber), publish vs steal (the owner answering
      a hunger flag while a thief sweeps), and spawn/await/complete
      (waiter CAS vs completion exchange), on one worker and across
      two. No fiber may be lost or run twice. *)

module A = Wfq_primitives.Real_atomic
module SA = Wfq_sim.Sim_atomic
module S = Wfq_sim.Scheduler
module E = Wfq_sim.Explore
module M = Wfq_obsv.Metrics
module Sched = Wfq_sched.Sched

(* Every run-queue but the shard comes from the registry through the
   uniform Rq_of adapter. *)
module Kp = (val Wfq_core.Backends.find "kp-opt12")
module Fps_pooled = (val Wfq_core.Backends.find "fps-pooled")
module Poly_backend = (val Wfq_core.Backends.find "polylog")
module Kp_sched = Sched.Make (A) (Sched.Rq_of (Kp) (A))
module Fps_sched = Sched.Make (A) (Sched.Rq_of (Fps_pooled) (A))
module Shard_sched = Sched.Make (A) (Sched.Rq_shard (A))
module Sim_sched = Sched.Make (SA) (Sched.Rq_of (Kp) (SA))
module Ring8 = (val Wfq_core.Backends.find "ring?capacity=8")
module Sim_ring_sched = Sched.Make (SA) (Sched.Rq_of (Ring8) (SA))
module Poly_sched = Sched.Make (A) (Sched.Rq_of (Poly_backend) (A))
module Ring64 = (val Wfq_core.Backends.find "ring?capacity=64")
module Ring_sched = Sched.Make (A) (Sched.Rq_of (Ring64) (A))

exception Boom

(* ------------------------------------------------------------------ *)
(* Single-worker deterministic core                                    *)
(* ------------------------------------------------------------------ *)

let test_yield_ordering () =
  let t = Kp_sched.create ~num_workers:1 () in
  let trace = ref [] in
  let log s = trace := s :: !trace in
  let _ =
    Kp_sched.submit t ~tid:0 (fun () ->
        log "A0";
        Kp_sched.yield ();
        log "A1")
  in
  let _ = Kp_sched.submit t ~tid:0 (fun () -> log "B") in
  let slices = Kp_sched.drain t ~tid:0 in
  (* A yields behind B: one FIFO run-queue fixes the order exactly. *)
  Alcotest.(check (list string))
    "yield goes behind the queue" [ "A0"; "B"; "A1" ] (List.rev !trace);
  Alcotest.(check int) "A took 2 slices, B took 1" 3 slices;
  Alcotest.(check int) "no fiber pending" 0 (Kp_sched.pending_fibers t);
  Alcotest.(check int) "2 spawned" 2 (Kp_sched.fibers_spawned t);
  Alcotest.(check int) "2 completed" 2 (Kp_sched.fibers_completed t)

let test_spawn_await_ordering () =
  let t = Kp_sched.create ~num_workers:1 () in
  let trace = ref [] in
  let log s = trace := s :: !trace in
  let pr =
    Kp_sched.submit t ~tid:0 (fun () ->
        log "P0";
        let c =
          Kp_sched.spawn (fun () ->
              log "C";
              21 * 2)
        in
        let v = Kp_sched.await c in
        log "P1";
        v)
  in
  ignore (Kp_sched.drain t ~tid:0 : int);
  (* The parent runs up to the await, suspends (the child has not run
     yet), the child completes, the parent is woken with the value. *)
  Alcotest.(check (list string))
    "await suspends until the child completes" [ "P0"; "C"; "P1" ]
    (List.rev !trace);
  Alcotest.(check bool) "value delivered" true
    (Kp_sched.result pr = Some (Ok 42));
  Alcotest.(check int) "conservation" 0 (Kp_sched.pending_fibers t)

let test_await_completed_fast_path () =
  let t = Kp_sched.create ~num_workers:1 () in
  let trace = ref [] in
  let log s = trace := s :: !trace in
  let pr =
    Kp_sched.submit t ~tid:0 (fun () ->
        let c = Kp_sched.spawn (fun () -> log "C") in
        (* Two yields run the child to completion before the await, so
           the await takes the already-completed fast path: the parent
           continues in the same slice, no suspension. *)
        Kp_sched.yield ();
        Kp_sched.yield ();
        Kp_sched.await c;
        log "P")
  in
  ignore (Kp_sched.drain t ~tid:0 : int);
  Alcotest.(check (list string)) "child first" [ "C"; "P" ] (List.rev !trace);
  Alcotest.(check bool) "done" true (Kp_sched.result pr = Some (Ok ()))

let test_conservation_tree () =
  (* A binary spawn tree of depth 4: 2^5 - 1 = 31 fibers, every one
     spawned and completed exactly once, result = leaf count. *)
  let t = Kp_sched.create ~num_workers:1 () in
  let module K = Kp_sched in
  let rec tree d =
    if d = 0 then 1
    else
      let a = K.spawn (fun () -> tree (d - 1)) in
      let b = K.spawn (fun () -> tree (d - 1)) in
      K.await a + K.await b
  in
  let pr = K.submit t ~tid:0 (fun () -> tree 4) in
  ignore (K.drain t ~tid:0 : int);
  Alcotest.(check bool) "16 leaves" true (K.result pr = Some (Ok 16));
  Alcotest.(check int) "31 fibers spawned" 31 (K.fibers_spawned t);
  Alcotest.(check int) "31 fibers completed" 31 (K.fibers_completed t);
  Alcotest.(check int) "none pending" 0 (K.pending_fibers t);
  Alcotest.(check int) "run-queue drained" 0 (K.run_queue_depth t 0)

let test_await_failed_child () =
  let t = Kp_sched.create ~num_workers:1 () in
  let pr =
    Kp_sched.submit t ~tid:0 (fun () ->
        let c = Kp_sched.spawn (fun () -> raise Boom) in
        match Kp_sched.await c with
        | () -> "returned"
        | exception Boom -> "caught")
  in
  ignore (Kp_sched.drain t ~tid:0 : int);
  (* The child fails after the parent suspends: the wakeup is a Cancel
     task, re-raising Boom at the parent's await point. *)
  Alcotest.(check bool) "await re-raises the child's exception" true
    (Kp_sched.result pr = Some (Ok "caught"));
  Alcotest.(check int) "both fibers completed" 2 (Kp_sched.fibers_completed t);
  (* And the already-failed fast path: the promise is completed before
     the await, which must discontinue immediately. *)
  let pr2 =
    Kp_sched.submit t ~tid:0 (fun () ->
        let c = Kp_sched.spawn (fun () -> raise Boom) in
        Kp_sched.yield ();
        Kp_sched.yield ();
        match Kp_sched.await c with
        | () -> "returned"
        | exception Boom -> "caught late")
  in
  ignore (Kp_sched.drain t ~tid:0 : int);
  Alcotest.(check bool) "failed fast path re-raises too" true
    (Kp_sched.result pr2 = Some (Ok "caught late"))

let test_run_single_domain () =
  let t = Kp_sched.create ~num_workers:1 () in
  let module K = Kp_sched in
  let rec tree d =
    if d = 0 then 1
    else
      let a = K.spawn (fun () -> tree (d - 1)) in
      let b = K.spawn (fun () -> tree (d - 1)) in
      K.await a + K.await b
  in
  Alcotest.(check int) "run returns main's value" 8 (K.run t (fun () -> tree 3));
  Alcotest.(check int) "conservation" 0 (K.pending_fibers t)

let test_run_reraises () =
  let t = Kp_sched.create ~num_workers:1 () in
  Alcotest.check_raises "main's exception escapes run" Boom (fun () ->
      Kp_sched.run t (fun () -> raise Boom))

(* Same spawn/await tree on the Rq_of-adapted polylog run-queue: the
   registry backend drives the scheduler with no per-backend adapter. *)
let test_run_rq_of_polylog () =
  let t = Poly_sched.create ~num_workers:1 () in
  let module K = Poly_sched in
  let rec tree d =
    if d = 0 then 1
    else
      let a = K.spawn (fun () -> tree (d - 1)) in
      let b = K.spawn (fun () -> tree (d - 1)) in
      K.await a + K.await b
  in
  Alcotest.(check int) "run returns main's value" 8 (K.run t (fun () -> tree 3));
  Alcotest.(check int) "conservation" 0 (K.pending_fibers t)

(* ------------------------------------------------------------------ *)
(* Stealing                                                           *)
(* ------------------------------------------------------------------ *)

let test_steal_follows_steal_order () =
  (* Worker 0's queue is empty; queues 1 and 2 hold one fiber each. Its
     steal sweep must visit victims in Steal_order order: 1 then 2. *)
  let t = Kp_sched.create ~num_workers:3 () in
  let trace = ref [] in
  let log s = trace := s :: !trace in
  let _ = Kp_sched.submit t ~tid:1 (fun () -> log "q1") in
  let _ = Kp_sched.submit t ~tid:2 (fun () -> log "q2") in
  Alcotest.(check int) "queue 1 loaded" 1 (Kp_sched.run_queue_depth t 1);
  Alcotest.(check int) "queue 2 loaded" 1 (Kp_sched.run_queue_depth t 2);
  Alcotest.(check bool) "first step steals" true (Kp_sched.step t ~tid:0);
  Alcotest.(check (list string)) "victim 1 first" [ "q1" ] (List.rev !trace);
  Alcotest.(check bool) "second step steals" true (Kp_sched.step t ~tid:0);
  Alcotest.(check (list string))
    "then victim 2" [ "q1"; "q2" ] (List.rev !trace);
  Alcotest.(check bool) "then idle" false (Kp_sched.step t ~tid:0);
  Alcotest.(check int) "two wins" 2 (Kp_sched.steals_won t);
  (* 3 attempts: the two winning sweeps plus the final idle one. *)
  Alcotest.(check int) "three sweeps entered" 3 (Kp_sched.steal_attempts t)

(* The hunger protocol, one step at a time. A parent on worker 0 fans
   out 4 children into its private FIFO, where worker 1 cannot see
   them. Worker 1's failed lap raises worker 0's hunger flag; worker
   0's next step publishes the 2 oldest children to its shared queue
   and runs the oldest itself (shared queue first); worker 1's next
   lap steals the other published one. *)
let test_hunger_protocol () =
  let module K = Kp_sched in
  let t = K.create ~num_workers:2 () in
  let reg = M.create () in
  K.register_metrics t reg ~prefix:"sched";
  let published () = M.value reg "sched.published" in
  let trace = ref [] in
  let _ =
    K.submit t ~tid:0 (fun () ->
        ignore
          (K.spawn_many
             (List.init 4 (fun i () -> trace := i :: !trace))
            : unit K.promise list))
  in
  Alcotest.(check bool) "worker 0 runs the parent" true (K.step t ~tid:0);
  Alcotest.(check int) "4 private tasks on worker 0" 4 (K.run_queue_depth t 0);
  Alcotest.(check bool) "worker 1's lap finds nothing" false (K.step t ~tid:1);
  Alcotest.(check (option int)) "nothing published yet" (Some 0) (published ());
  Alcotest.(check bool) "worker 0 steps" true (K.step t ~tid:0);
  Alcotest.(check (option int)) "the 2 oldest published" (Some 2) (published ());
  Alcotest.(check (list int)) "worker 0 ran the oldest" [ 0 ] (List.rev !trace);
  Alcotest.(check bool) "worker 1 steals" true (K.step t ~tid:1);
  Alcotest.(check (list int))
    "worker 1 stole the next oldest" [ 0; 1 ] (List.rev !trace);
  Alcotest.(check int) "one steal won" 1 (K.steals_won t);
  Alcotest.(check int) "worker 0 runs the rest" 2 (K.drain t ~tid:0);
  Alcotest.(check (list int)) "all four, in order" [ 0; 1; 2; 3 ]
    (List.rev !trace);
  Alcotest.(check int) "none pending" 0 (K.pending_fibers t);
  Alcotest.(check (list int)) "queues drained" [ 0; 0 ]
    [ K.run_queue_depth t 0; K.run_queue_depth t 1 ]

(* A 64-slot ring run-queue fanned out to 10x its capacity. Neither a
   [submit_batch] that overflows the ring (the refused suffix spills
   to the private FIFO) nor a publication larger than the ring (the
   refused suffix stays private) may raise; every fiber must run
   once, with the right answer. *)
let test_full_ring_never_raises () =
  let module R = Ring_sched in
  let n = 640 in
  let bodies f = List.init n (fun i () -> R.yield (); f i) in
  (* 1 worker: submit spill. *)
  let t = R.create ~num_workers:1 () in
  let prs = R.submit_batch t ~tid:0 (bodies (fun i -> i * i)) in
  ignore (R.drain t ~tid:0 : int);
  List.iteri
    (fun i p ->
      if R.result p <> Some (Ok (i * i)) then
        Alcotest.failf "submitted task %d: wrong or missing answer" i)
    prs;
  Alcotest.(check int) "1 worker: all completed" n (R.fibers_completed t);
  Alcotest.(check int) "1 worker: none pending" 0 (R.pending_fibers t);
  (* 2 workers, stepped by hand: a publication of n/2 tasks meets a
     64-slot ring. *)
  let t = R.create ~num_workers:2 () in
  let reg = M.create () in
  R.register_metrics t reg ~prefix:"sched";
  let main =
    R.submit t ~tid:0 (fun () ->
        List.fold_left ( + ) 0 (List.map R.await (R.spawn_many (bodies Fun.id))))
  in
  ignore (R.step t ~tid:0 : bool);
  ignore (R.step t ~tid:1 : bool);
  ignore (R.step t ~tid:0 : bool);
  Alcotest.(check (option int)) "publication capped by the ring" (Some 64)
    (M.value reg "sched.published");
  let rec drain_all () =
    if R.drain t ~tid:0 + R.drain t ~tid:1 > 0 then drain_all ()
  in
  drain_all ();
  Alcotest.(check bool) "stepped: fan-out sum" true
    (R.result main = Some (Ok (n * (n - 1) / 2)));
  Alcotest.(check int) "stepped: none pending" 0 (R.pending_fibers t);
  (* 2 domains: the same fan-out under [run]. *)
  let t = R.create ~num_workers:2 () in
  let total =
    R.run t (fun () ->
        List.fold_left ( + ) 0 (List.map R.await (R.spawn_many (bodies Fun.id))))
  in
  Alcotest.(check int) "2 domains: fan-out sum" (n * (n - 1) / 2) total;
  Alcotest.(check int) "2 domains: all spawned" (n + 1) (R.fibers_spawned t);
  Alcotest.(check int) "2 domains: all completed" (n + 1) (R.fibers_completed t);
  Alcotest.(check int) "2 domains: none pending" 0 (R.pending_fibers t)

let test_multidomain_stress () =
  (* 4 domains over the pooled fast-path/slow-path backend: a 32-wide
     fan-out with a yield inside each subfiber, summed by awaits.
     Everything beyond worker 0 arrives by stealing. *)
  let module F = Fps_sched in
  let t = F.create ~num_workers:4 () in
  let total =
    F.run t (fun () ->
        let ps =
          List.init 32 (fun i ->
              F.spawn (fun () ->
                  F.yield ();
                  i))
        in
        List.fold_left (fun acc p -> acc + F.await p) 0 ps)
  in
  Alcotest.(check int) "fan-out sum" 496 total;
  Alcotest.(check int) "33 spawned" 33 (F.fibers_spawned t);
  Alcotest.(check int) "33 completed" 33 (F.fibers_completed t);
  Alcotest.(check int) "none pending" 0 (F.pending_fibers t);
  let depths = List.init 4 (fun i -> F.run_queue_depth t i) in
  Alcotest.(check (list int)) "all queues drained" [ 0; 0; 0; 0 ] depths

(* ------------------------------------------------------------------ *)
(* Observability                                                      *)
(* ------------------------------------------------------------------ *)

(* The uniform RUN_QUEUE contract, exercised through all three
   backends: the scheduler's metrics dump must contain the scheduler
   counters plus, for every per-worker run-queue, its push/take
   counters and the backend-registered depth gauge. *)
let metric_names (module Sch : Sched.S) =
  let t = Sch.create ~num_workers:2 () in
  let reg = M.create () in
  Sch.register_metrics t reg ~prefix:"sched";
  let _ = Sch.submit t ~tid:0 (fun () -> Sch.yield ()) in
  ignore (Sch.drain t ~tid:0 : int);
  (reg, List.map fst (M.entries reg))

let test_metrics_dump_uniform () =
  List.iter
    (fun ((module Sch : Sched.S) as sch) ->
      let reg, names = metric_names sch in
      let expect n =
        Alcotest.(check bool)
          (Printf.sprintf "%s: %s registered" Sch.name n)
          true (List.mem n names)
      in
      List.iter expect
        [
          "sched.fibers_spawned";
          "sched.fibers_completed";
          "sched.steal_attempts";
          "sched.steals_won";
          "sched.published";
          "sched.pending_fibers";
        ];
      for i = 0 to 1 do
        List.iter expect
          [
            Printf.sprintf "sched.rq%d.pushes" i;
            Printf.sprintf "sched.rq%d.takes" i;
            Printf.sprintf "sched.rq%d.depth" i;
          ]
      done;
      Alcotest.(check (option int))
        (Sch.name ^ ": spawned total via registry")
        (Some 1)
        (M.value reg "sched.fibers_spawned");
      Alcotest.(check (option int))
        (Sch.name ^ ": rq0 drained")
        (Some 0)
        (M.value reg "sched.rq0.depth"))
    [
      (module Kp_sched : Sched.S);
      (module Fps_sched : Sched.S);
      (module Shard_sched : Sched.S);
    ]

let test_obsv_histograms () =
  let reg = M.create () in
  let obsv = Sched.metrics reg ~prefix:"sched" ~slots:1 in
  let ticks = ref 0 in
  let clock () =
    incr ticks;
    !ticks * 100
  in
  let t = Kp_sched.create ~obsv ~clock ~num_workers:1 () in
  for _ = 1 to 3 do
    ignore (Kp_sched.submit t ~tid:0 (fun () -> ()))
  done;
  ignore (Kp_sched.drain t ~tid:0 : int);
  (match M.histogram_summary reg "sched.fiber_latency_ns" with
  | None -> Alcotest.fail "fiber latency histogram missing"
  | Some s ->
      Alcotest.(check int) "one latency sample per fiber" 3
        s.Wfq_obsv.Histogram.count;
      Alcotest.(check bool) "latencies positive" true
        (s.Wfq_obsv.Histogram.max > 0));
  match M.histogram_summary reg "sched.runq_depth" with
  | None -> Alcotest.fail "run-queue depth histogram missing"
  | Some s ->
      Alcotest.(check int) "one depth sample per push" 3
        s.Wfq_obsv.Histogram.count;
      (* Pushes happen back-to-back before the drain: depths 1, 2, 3. *)
      Alcotest.(check int) "max depth seen" 3 s.Wfq_obsv.Histogram.max

(* ------------------------------------------------------------------ *)
(* The simulator plane                                                *)
(* ------------------------------------------------------------------ *)

(* Deterministic sim run: the whole scheduler (KP run-queues included)
   executes inside one simulator fiber, every shared access forwarded
   through the scheduler's shallow handlers to the sim scheduler. This
   is the direct regression test for handler forwarding. *)
let test_sim_deterministic () =
  let t = Sim_sched.create ~num_workers:1 () in
  let trace = ref [] in
  let log s = trace := s :: !trace in
  let pr =
    S.ignore_yields (fun () ->
        Sim_sched.submit t ~tid:0 (fun () ->
            log "P0";
            let c =
              Sim_sched.spawn (fun () ->
                  log "C";
                  7)
            in
            Sim_sched.yield ();
            let v = Sim_sched.await c in
            log "P1";
            v))
  in
  let r = S.run [| (fun () -> ignore (Sim_sched.drain t ~tid:0 : int)) |] in
  Alcotest.(check bool) "sim run completed" true (r.S.outcome = S.All_finished);
  Alcotest.(check (list string))
    "same ordering as on real atomics" [ "P0"; "C"; "P1" ]
    (List.rev !trace);
  Alcotest.(check bool) "value through sim plane" true
    (S.ignore_yields (fun () -> Sim_sched.result pr) = Some (Ok 7));
  Alcotest.(check int) "conservation" 0
    (S.ignore_yields (fun () -> Sim_sched.pending_fibers t))

(* DPOR litmus 1 — steal hand-off. One fiber is submitted to worker
   0's queue; both workers then race a single [step]: worker 0 dequeues
   locally while worker 1's sweep steals from the same queue. Under
   every interleaving exactly one of them must win the fiber. *)
let steal_litmus_make () =
  let t = Sim_sched.create ~num_workers:2 () in
  let hits = ref 0 in
  let pr =
    S.ignore_yields (fun () ->
        Sim_sched.submit t ~tid:0 (fun () -> incr hits))
  in
  let worker tid () = ignore (Sim_sched.step t ~tid : bool) in
  let check (_ : S.result) =
    (* Quiescent completion of whatever the bounded steps left behind,
       then conservation: the fiber ran exactly once, nothing lost. *)
    S.ignore_yields (fun () ->
        ignore (Sim_sched.drain t ~tid:0 : int);
        if !hits <> 1 then
          Error (Printf.sprintf "fiber ran %d times" !hits)
        else if Sim_sched.pending_fibers t <> 0 then Error "fiber lost"
        else if Sim_sched.fibers_completed t <> 1 then
          Error "completion not recorded"
        else
          match Sim_sched.result pr with
          | Some (Ok ()) -> Ok ()
          | _ -> Error "promise unfulfilled")
  in
  ([| worker 0; worker 1 |], check)

let test_dpor_steal_handoff () =
  let r = E.dpor ~max_schedules:200_000 ~make:steal_litmus_make () in
  (match r.E.failure with
  | None -> ()
  | Some (_, m) -> Alcotest.failf "steal hand-off violation: %s" m);
  Alcotest.(check bool) "trace space exhausted" true r.E.exhausted;
  Alcotest.(check bool) "non-trivial exploration" true (r.E.schedules > 1)

(* Quiescent completion for the litmus checks: a worker's private FIFO
   is reachable only through its own steps, so every worker is drained
   until none makes progress. *)
let drain_all (type t) (module K : Sched.S with type t = t) (t : t) =
  let rec go () =
    let n = ref 0 in
    for tid = 0 to K.num_workers t - 1 do
      n := !n + K.drain t ~tid
    done;
    if !n > 0 then go ()
  in
  go ()

let stepper (type t) (module K : Sched.S with type t = t) (t : t) tid steps () =
  for _ = 1 to steps do
    ignore (K.step t ~tid : bool)
  done

(* DPOR litmus 2 — publish vs steal. Worker 0 holds 4 children in its
   private FIFO and its hunger flag is up (setup: the parent's slice,
   then worker 1's failed lap). Worker 0's step publishes the 2 oldest
   with one batch and takes from its shared queue, racing worker 1's
   sweep over that same queue. Every child must run exactly once, and
   at least the 2 tasks of the answered flag are published (draining
   may publish more). The run-queue is the ring: over KP the batch
   insert and two racing dequeues are past 3M schedules unexhausted,
   while the ring's scenario exhausts in under a hundred. *)
let publish_litmus_make () =
  let t = Sim_ring_sched.create ~num_workers:2 () in
  let reg = M.create () in
  let hits = Array.make 4 0 in
  S.ignore_yields (fun () ->
      Sim_ring_sched.register_metrics t reg ~prefix:"sched";
      let _ =
        Sim_ring_sched.submit t ~tid:0 (fun () ->
            ignore
              (Sim_ring_sched.spawn_many
                 (List.init 4 (fun i () -> hits.(i) <- hits.(i) + 1))
                : unit Sim_ring_sched.promise list))
      in
      ignore (Sim_ring_sched.step t ~tid:0 : bool);
      ignore (Sim_ring_sched.step t ~tid:1 : bool));
  let check (_ : S.result) =
    S.ignore_yields (fun () ->
        drain_all (module Sim_ring_sched) t;
        if Array.exists (fun h -> h <> 1) hits then
          Error
            (Printf.sprintf "children ran [%s] times"
               (String.concat "; "
                  (Array.to_list (Array.map string_of_int hits))))
        else if Option.value ~default:0 (M.value reg "sched.published") < 2
        then Error "the hunger flag was not answered with 2 tasks"
        else if Sim_ring_sched.pending_fibers t <> 0 then Error "fiber lost"
        else if Sim_ring_sched.fibers_completed t <> 5 then
          Error "completion miscount"
        else Ok ())
  in
  let step tid = stepper (module Sim_ring_sched) t tid 1 in
  ([| step 0; step 1 |], check)

let test_dpor_publish_steal () =
  let r = E.dpor ~max_schedules:200_000 ~make:publish_litmus_make () in
  (match r.E.failure with
  | None -> ()
  | Some (_, m) -> Alcotest.failf "publish/steal violation: %s" m);
  Alcotest.(check bool) "trace space exhausted" true r.E.exhausted;
  Alcotest.(check bool) "non-trivial exploration" true (r.E.schedules > 1)

(* DPOR litmus 3 — spawn/await/complete hand-off. Worker 0 starts a
   parent that spawns a child and awaits it; worker 1 races to steal
   the parent (or, once published, the child). Explores the waiter-CAS
   vs completion-exchange race on the promise cell: no lost wakeup, no
   double resume. *)
let await_litmus_make () =
  let t = Sim_sched.create ~num_workers:2 () in
  let got = ref (-1) in
  let _pr =
    S.ignore_yields (fun () ->
        Sim_sched.submit t ~tid:0 (fun () ->
            let c = Sim_sched.spawn (fun () -> 7) in
            got := Sim_sched.await c))
  in
  let check (_ : S.result) =
    S.ignore_yields (fun () ->
        drain_all (module Sim_sched) t;
        if !got <> 7 then Error (Printf.sprintf "await returned %d" !got)
        else if Sim_sched.pending_fibers t <> 0 then Error "fiber lost"
        else if Sim_sched.fibers_spawned t <> 2 then Error "spawn miscount"
        else if Sim_sched.fibers_completed t <> 2 then
          Error "completion miscount"
        else Ok ())
  in
  let steps tid = stepper (module Sim_sched) t tid 2 in
  ([| steps 0; steps 1 |], check)

let test_dpor_await_handoff () =
  (* The access count here (two KP dequeue attempts per worker plus the
     promise protocol) puts exhaustion out of reach of a unit-test
     budget; a bounded clean pass is the acceptance bar, per the DPOR
     convention for large scenarios. *)
  let r = E.dpor ~max_schedules:25_000 ~make:await_litmus_make () in
  (match r.E.failure with
  | None -> ()
  | Some (_, m) -> Alcotest.failf "await hand-off violation: %s" m);
  Alcotest.(check bool) "explored a real schedule set" true
    (r.E.schedules > 100)

(* DPOR litmus 4 — the await hand-off across workers. Children start
   on their parent's private FIFO, where no other worker can take them
   before they are published, so the child here is submitted to worker
   1 directly while the parent, on worker 0, awaits it: worker 0's
   waiter CAS races worker 1's completion exchange on the promise
   cell, and the wakeup lands on whichever worker completes the
   child. *)
let cross_await_litmus_make () =
  let t = Sim_sched.create ~num_workers:2 () in
  let got = ref (-1) in
  S.ignore_yields (fun () ->
      let c = Sim_sched.submit t ~tid:1 (fun () -> 7) in
      ignore
        (Sim_sched.submit t ~tid:0 (fun () -> got := Sim_sched.await c)
          : unit Sim_sched.promise));
  let check (_ : S.result) =
    S.ignore_yields (fun () ->
        drain_all (module Sim_sched) t;
        if !got <> 7 then Error (Printf.sprintf "await returned %d" !got)
        else if Sim_sched.pending_fibers t <> 0 then Error "fiber lost"
        else if Sim_sched.fibers_completed t <> 2 then
          Error "completion miscount"
        else Ok ())
  in
  let steps tid = stepper (module Sim_sched) t tid 2 in
  ([| steps 0; steps 1 |], check)

let test_dpor_cross_await () =
  let r = E.dpor ~max_schedules:200_000 ~make:cross_await_litmus_make () in
  (match r.E.failure with
  | None -> ()
  | Some (_, m) -> Alcotest.failf "cross-worker await violation: %s" m);
  Alcotest.(check bool) "trace space exhausted" true r.E.exhausted;
  Alcotest.(check bool) "non-trivial exploration" true (r.E.schedules > 1)

let () =
  Alcotest.run "sched"
    [
      ( "deterministic core",
        [
          Alcotest.test_case "yield ordering pinned" `Quick
            test_yield_ordering;
          Alcotest.test_case "spawn/await ordering + value" `Quick
            test_spawn_await_ordering;
          Alcotest.test_case "await completed fast path" `Quick
            test_await_completed_fast_path;
          Alcotest.test_case "fiber-count conservation (31-fiber tree)"
            `Quick test_conservation_tree;
          Alcotest.test_case "await re-raises child failure" `Quick
            test_await_failed_child;
          Alcotest.test_case "run at 1 domain" `Quick test_run_single_domain;
          Alcotest.test_case "run on Rq_of polylog run-queue" `Quick
            test_run_rq_of_polylog;
          Alcotest.test_case "run re-raises main's exception" `Quick
            test_run_reraises;
        ] );
      ( "stealing",
        [
          Alcotest.test_case "sweep follows Steal_order" `Quick
            test_steal_follows_steal_order;
          Alcotest.test_case "hunger protocol: raise, publish, steal" `Quick
            test_hunger_protocol;
          Alcotest.test_case "ring at 10x capacity never raises" `Quick
            test_full_ring_never_raises;
          Alcotest.test_case "4-domain fan-out stress" `Slow
            test_multidomain_stress;
        ] );
      ( "observability",
        [
          Alcotest.test_case "uniform metrics dump (3 backends)" `Quick
            test_metrics_dump_uniform;
          Alcotest.test_case "depth + latency histograms" `Quick
            test_obsv_histograms;
        ] );
      ( "sim",
        [
          Alcotest.test_case "deterministic run through sim plane" `Quick
            test_sim_deterministic;
          Alcotest.test_case "dpor: steal hand-off" `Slow
            test_dpor_steal_handoff;
          Alcotest.test_case "dpor: publish vs steal" `Slow
            test_dpor_publish_steal;
          Alcotest.test_case "dpor: spawn/await/complete hand-off" `Slow
            test_dpor_await_handoff;
          Alcotest.test_case "dpor: await across workers" `Slow
            test_dpor_cross_await;
        ] );
    ]
