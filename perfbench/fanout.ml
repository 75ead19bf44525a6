(* [fanout]: closed loop on the fiber scheduler. [clients] client
   fibers each issue requests back to back; a request burns CPU, fans
   out [width] subfibers with one [spawn_many] (each yields once, then
   burns CPU), awaits them all and burns CPU again. Every hop — batch
   push, local pop, steal, effect resume — crosses the run-queues,
   while the queue operations themselves are a small share of the
   time. The in-flight depth is bounded by the clients, as in a closed
   service; a run-queue that refuses anyway fails its request. *)

module RA = Wfq_primitives.Real_atomic
module Sched = Wfq_sched.Sched

let now = Phase.now
let clients = 32
let width = 8

(* Burn lengths, in loop iterations, drawn from the seed. *)
let mean_burn = 400
let burn_table = 1024

(* Integer mixing: allocation-free, and [opaque_identity] keeps it
   from being folded away. *)
let burn n =
  let acc = ref n in
  for i = 1 to n do
    acc := (!acc + (i * 0x9E3779B1)) lxor (!acc lsr 7)
  done;
  ignore (Sys.opaque_identity !acc)

(* Per-client tallies: each client fiber writes only its own slot. *)
type tally = {
  completed : int array;
  raised : int array;
  wrong : int array;  (** requests whose fan-out answer was wrong *)
  subs : int array;  (** subfibers spawned *)
  latency : int array;  (** summed request latencies, ns *)
}

let run ~backend ~workers ~seconds ~seed ?spans () =
  let t_setup = now () in
  let (module B : Wfq_core.Queue_intf.BACKEND) = Wfq_core.Backends.find backend in
  let module S = Sched.Make (RA) (Sched.Rq_of (B) (RA)) in
  let rng = Random.State.make [| seed |] in
  let burns =
    Array.init burn_table (fun _ -> (mean_burn / 2) + Random.State.int rng mean_burn)
  in
  let zeros () = Array.make clients 0 in
  let tl =
    {
      completed = zeros ();
      raised = zeros ();
      wrong = zeros ();
      subs = zeros ();
      latency = zeros ();
    }
  in
  let sched = S.create ~num_workers:workers () in
  Option.iter Spans.reset spans;
  let record kind ~req ~start ~stop =
    match spans with
    | None -> ()
    | Some sp -> Spans.record (Spans.local sp) kind ~req ~start ~stop
  in
  let traced = Option.is_some spans in
  let dur = int_of_float (seconds *. 1e9) in
  (* The answer of subfiber [j] of request [req], and the list a
     correct fan-out returns. *)
  let answer req j = (req * width) + j in
  let request c req =
    let w j = burns.(((req * 11) + j) land (burn_table - 1)) in
    burn (w 0);
    let s = if traced then now () else 0 in
    let ps =
      S.spawn_many
        (List.init width (fun j () ->
             let y = if traced then now () else 0 in
             S.yield ();
             if traced then record Yield ~req ~start:y ~stop:(now ());
             burn (w (j + 1));
             answer req j))
    in
    if traced then record Spawn_many ~req ~start:s ~stop:(now ());
    tl.subs.(c) <- tl.subs.(c) + width;
    let got = List.map S.await ps in
    burn (w (width + 1));
    got = List.init width (answer req)
  in
  let client c deadline () =
    let k = ref 0 in
    while now () < deadline do
      let req = c + (clients * !k) in
      incr k;
      let a = now () in
      (match request c req with
      | true -> tl.completed.(c) <- tl.completed.(c) + 1
      | false -> tl.wrong.(c) <- tl.wrong.(c) + 1
      | exception _ -> tl.raised.(c) <- tl.raised.(c) + 1);
      let b = now () in
      if traced then record Request ~req ~start:a ~stop:b;
      tl.latency.(c) <- tl.latency.(c) + (b - a)
    done
  in
  let t0 = ref 0 in
  let g0 = Stat.gc_now () in
  S.run sched (fun () ->
      t0 := now ();
      let cs = List.init clients (fun c -> S.spawn (client c (!t0 + dur))) in
      List.iter S.await cs);
  let t_end = now () in
  let gc = Stat.gc_since g0 in
  let total a = Array.fold_left ( + ) 0 a in
  let completed = total tl.completed and subs = total tl.subs in
  let requests = completed + total tl.wrong + total tl.raised in
  let spawned = S.fibers_spawned sched in
  let errors =
    List.filter_map Fun.id
      [
        (let w = total tl.wrong in
         if w > 0 then Some (Printf.sprintf "%d requests got a wrong fan-out answer" w)
         else None);
        (if S.pending_fibers sched <> 0 || spawned <> S.fibers_completed sched then
           Some
             (Printf.sprintf "fibers not conserved: %d spawned, %d completed, %d pending"
                spawned (S.fibers_completed sched) (S.pending_fibers sched))
         else None);
        (* main, the clients, and every subfiber *)
        (if spawned <> 1 + clients + subs then
           Some (Printf.sprintf "%d fibers spawned, expected %d" spawned (1 + clients + subs))
         else None);
      ]
  in
  let secs = float_of_int (t_end - !t0) *. 1e-9 in
  let reqs = float_of_int (max 1 requests) in
  let attempts = S.steal_attempts sched in
  let layer =
    [
      ("fanout.words_per_req", gc.words /. reqs);
      ("fanout.minor_gcs", float_of_int gc.minors /. secs);
      ("sched.steal_attempts_per_req", float_of_int attempts /. reqs);
      ("sched.steal_win_ratio", float_of_int (S.steals_won sched) /. float_of_int (max 1 attempts));
    ]
    @
    match spans with
    | None -> []
    | Some sp ->
        let d = Spans.durations sp in
        let yields = d Yield and reqs = d Request in
        [
          ("sched.spawn_many_ns_p50", Stat.percentile (d Spawn_many) 50.);
          ("sched.yield_resume_ns_p50", Stat.percentile yields 50.);
          ("sched.yield_resume_ns_p99", Stat.percentile yields 99.);
          ("sched.request_p50_us", Phase.ns_to_us (Stat.percentile reqs 50.));
          ("sched.request_p99_us", Phase.ns_to_us (Stat.percentile reqs 99.));
        ]
  in
  {
    Phase.setup_ns = !t0 - t_setup;
    attempted = requests;
    failed = total tl.raised;
    errors;
    throughput = float_of_int completed /. secs;
    latency_us = Phase.ns_to_us (float_of_int (total tl.latency) /. reqs);
    layer;
  }
