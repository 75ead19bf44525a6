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

type scale = {
  domains : int list;
  requests : int;
  fanout : int;
  work : int;  (** CPU-burn loop iterations per stage *)
  runs : int;
}

let default = { domains = [ 1; 2; 4 ]; requests = 200; fanout = 8; work = 400; runs = 3 }

type line = {
  backend : string;
  domains : int;
  requests : int;
  fanout : int;
  fibers : int;
  seconds : float;
  throughput : float;  (** requests per second *)
  fiber_p50_ns : float;
  fiber_p99_ns : float;
  steal_attempts : int;
  steals_won : int;
}

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
  let fibers = Sch.fibers_spawned t in
  if fibers <> Sch.fibers_completed t || Sch.pending_fibers t <> 0 then
    failwith (Printf.sprintf "Sched_bench(%s): fibers not conserved" backend);
  let p50, p99 =
    match M.histogram_summary reg "sched.fiber_latency_ns" with
    | Some s -> (s.Wfq_obsv.Histogram.p50, s.Wfq_obsv.Histogram.p99)
    | None -> failwith "Sched_bench: latency histogram missing"
  in
  {
    backend;
    domains;
    requests;
    fanout;
    fibers;
    seconds;
    throughput = float_of_int requests /. seconds;
    fiber_p50_ns = p50;
    fiber_p99_ns = p99;
    steal_attempts = Sch.steal_attempts t;
    steals_won = Sch.steals_won t;
  }

let fmedian l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let imedian l = int_of_float (fmedian (List.map float_of_int l))

let median_line lines =
  match lines with
  | [] -> invalid_arg "Sched_bench.median_line"
  | first :: _ ->
      let f sel = fmedian (List.map sel lines)
      and i sel = imedian (List.map sel lines) in
      {
        first with
        seconds = f (fun l -> l.seconds);
        throughput = f (fun l -> l.throughput);
        fiber_p50_ns = f (fun l -> l.fiber_p50_ns);
        fiber_p99_ns = f (fun l -> l.fiber_p99_ns);
        steal_attempts = i (fun l -> l.steal_attempts);
        steals_won = i (fun l -> l.steals_won);
      }

let service ?(backends = backends) ~(scale : scale) () =
  if scale.requests <= 0 || scale.fanout <= 0 || scale.runs <= 0 then
    invalid_arg "Sched_bench.service";
  List.concat_map
    (fun (backend, sch) ->
      List.map
        (fun domains ->
          if domains <= 0 then invalid_arg "Sched_bench.service: domains";
          median_line
            (List.init scale.runs (fun _ ->
                 service_once sch ~backend ~domains ~requests:scale.requests
                   ~fanout:scale.fanout ~work:scale.work)))
        scale.domains)
    backends

let series lines =
  let by_backend =
    List.fold_left
      (fun acc l ->
        if List.mem l.backend acc then acc else acc @ [ l.backend ])
      [] lines
  in
  let series_of prefix sel =
    List.map
      (fun b ->
        {
          Report.label = prefix ^ ":" ^ b;
          points =
            List.filter_map
              (fun l ->
                if l.backend = b then
                  Some (float_of_int l.domains, sel l)
                else None)
              lines;
        })
      by_backend
  in
  series_of "throughput" (fun l -> l.throughput)
  @ series_of "fiber_p50_ns" (fun l -> l.fiber_p50_ns)
  @ series_of "fiber_p99_ns" (fun l -> l.fiber_p99_ns)
  @ series_of "steals" (fun l -> float_of_int l.steals_won)
  @ series_of "steal_attempts" (fun l -> float_of_int l.steal_attempts)
