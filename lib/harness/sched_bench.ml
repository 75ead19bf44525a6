(** End-to-end service scenario on the fiber scheduler (Wfq_sched): a
    request fan-out with mixed CPU work and queue hops, the shape the
    scheduler exists to serve.

    Each request fiber parses (CPU burn), spawns [fanout] subfibers —
    each of which yields once (a forced run-queue round-trip) and burns
    CPU — awaits them all, then burns CPU again to respond. Every hop
    (spawn, yield, wakeup) goes through the scheduler's queues: the
    worker's private FIFO, and the wait-free run-queues for the work
    that moves between workers (published and stolen tasks). Request
    throughput and per-fiber latency therefore measure the backend
    under its intended load rather than a bare enqueue/dequeue cycle.

    Per-fiber latency comes from the scheduler's own [?obsv] histogram
    (spawn-to-completion, bechamel's raw ns clock); stealing and
    conservation counters come from the always-on scheduler stats. Each
    (backend, domain-count) point runs [runs] times and reports the
    per-field median. *)

module Sched = Wfq_sched.Sched
module RA = Wfq_primitives.Real_atomic
module M = Wfq_obsv.Metrics

let now_ns = Clock.now_ns

(* What one run reports, in the order [service_once] returns it. *)
let fields = [ "throughput"; "fiber_p50_ns"; "fiber_p99_ns"; "steals"; "steal_attempts" ]

(* Integer mixing keeps the burn loop allocation-free; opaque_identity
   pins it against constant folding. *)
let cpu_work n =
  let acc = ref 0 in
  for i = 1 to n do
    acc := (!acc + (i * 0x9E3779B1)) lxor (!acc lsr 7)
  done;
  ignore (Sys.opaque_identity !acc)

(* A scheduler over a registry spec's run-queues. *)
let on spec : (module Sched.S) =
  let module B = (val Wfq_core.Backends.find spec) in
  (module Sched.Make (RA) (Sched.Rq_of (B) (RA)))

let backends : (string * (module Sched.S)) list =
  [
    ("kp_opt12", on "kp-opt12");
    ("fps_pooled", on "fps-pooled");
    ("shard_rr2", (module Sched.Make (RA) (Sched.Rq_shard (RA))));
    ("ring", on "ring?capacity=4096");
  ]

let service_once (module Sch : Sched.S) ~backend ~domains ~requests ~fanout
    ~work =
  let reg = M.create () in
  let obsv = Sched.metrics reg ~prefix:"sched" ~slots:domains in
  let t = Sch.create ~obsv ~clock:now_ns ~num_workers:domains () in
  Sch.register_metrics t reg ~prefix:"sched";
  Gc.full_major ();
  let t0 = Clock.now_s () in
  let total =
    Sch.run t (fun () ->
        let handle () =
          cpu_work work;
          let subs =
            List.init fanout (fun j ->
                Sch.spawn (fun () ->
                    Sch.yield ();
                    cpu_work work;
                    j))
          in
          let s = List.fold_left (fun a p -> a + Sch.await p) 0 subs in
          cpu_work work;
          s
        in
        let reqs = List.init requests (fun _ -> Sch.spawn handle) in
        List.fold_left (fun a p -> a + Sch.await p) 0 reqs)
  in
  let seconds = Clock.now_s () -. t0 in
  let expected = requests * (fanout * (fanout - 1) / 2) in
  if total <> expected then
    failwith
      (Printf.sprintf "Sched_bench(%s): answer %d, expected %d" backend
         total expected);
  if Sch.fibers_spawned t <> Sch.fibers_completed t || Sch.pending_fibers t <> 0 then
    failwith (Printf.sprintf "Sched_bench(%s): fibers not conserved" backend);
  let p50, p99 =
    match M.histogram_summary reg "sched.fiber_latency_ns" with
    | Some s -> (s.Wfq_obsv.Histogram.p50, s.Wfq_obsv.Histogram.p99)
    | None -> failwith "Sched_bench: latency histogram missing"
  in
  [
    float_of_int requests /. seconds;
    p50;
    p99;
    float_of_int (Sch.steals_won t);
    float_of_int (Sch.steal_attempts t);
  ]

let service ~domains ~requests ~fanout ~work ~runs =
  if requests <= 0 || fanout <= 0 || runs <= 0 then invalid_arg "Sched_bench.service";
  let measured =
    List.map
      (fun (backend, sch) ->
        ( backend,
          List.map
            (fun d ->
              if d <= 0 then invalid_arg "Sched_bench.service: domains";
              ( float_of_int d,
                List.init runs (fun _ ->
                    service_once sch ~backend ~domains:d ~requests ~fanout ~work) ))
            domains ))
      backends
  in
  List.concat
    (List.mapi
       (fun i field ->
         List.map
           (fun (b, pts) ->
             {
               Report.label = field ^ ":" ^ b;
               points =
                 List.map
                   (fun (x, runs) ->
                     (x, Wfq_primitives.Stats.median (List.map (fun r -> List.nth r i) runs)))
                   pts;
             })
           measured)
       fields)
