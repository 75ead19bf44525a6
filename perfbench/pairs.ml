(* [pairs]: the paper's enqueue-dequeue pairs test (Figs. 7-8), closed
   loop. Every domain repeats enqueue-then-dequeue on one shared,
   initially empty queue, so only the queue-operation protocol runs:
   no shard, scheduler or generator code is on the path. *)

module Backends = Wfq_core.Backends
module M = Wfq_obsv.Metrics

let now = Phase.now

type dom = {
  ops : int;  (** completed operations *)
  attempted : int;
  raised : int;
  empties : int;  (** dequeues that found the queue empty *)
  sum_in : int;
  sum_out : int;
  t_end : int;
}

(* [spans] given: the traced phase (spans around every operation, and
   the backend's own counters attached). [cas_ns] is the primitive
   floor of the plausibility gate. *)
let run ~backend ~domains ~seconds ~seed ~cas_ns ?spans () =
  let t_setup = now () in
  let reg = M.create () in
  let obsv = Option.map (fun _ -> (reg, "q")) spans in
  let q : int Wfq_core.Queue_intf.instance =
    Backends.instantiate (Backends.find backend) ?obsv ~num_threads:domains ()
  in
  Option.iter Spans.reset spans;
  let dur = int_of_float (seconds *. 1e9) in
  let g0 = Stat.gc_now () in
  let t0, doms =
    Phase.on_domains domains (fun tid ~t0 ->
        let deadline = t0 + dur in
        let buf = Option.map Spans.local spans in
        let ops = ref 0 and attempted = ref 0 and raised = ref 0 in
        let empties = ref 0 and sum_in = ref 0 and sum_out = ref 0 in
        let enq v =
          incr attempted;
          match q.enq ~tid v with
          | () ->
              incr ops;
              sum_in := !sum_in + v;
              true
          | exception _ ->
              incr raised;
              false
        in
        let deq () =
          incr attempted;
          match q.deq ~tid with
          | Some x ->
              incr ops;
              sum_out := !sum_out + x
          | None -> incr empties
          | exception _ -> incr raised
        in
        let k = ref ((seed * domains) + tid) in
        let pair () =
          if enq !k then deq ();
          k := !k + domains
        in
        let t = ref t0 in
        (match buf with
        | None ->
            (* one clock read per 64 pairs checks the deadline *)
            while !t < deadline do
              for _ = 1 to 64 do
                pair ()
              done;
              t := now ()
            done
        | Some b ->
            while !t < deadline do
              for _ = 1 to 64 do
                let req = !k in
                let s = now () in
                let ok = enq req in
                let m = now () in
                if ok then deq ();
                let e = now () in
                k := !k + domains;
                Spans.record b Core_enq ~req ~start:s ~stop:m;
                Spans.record b Core_deq ~req ~start:m ~stop:e;
                Spans.record b Pair ~req ~start:s ~stop:e;
                t := e
              done
            done);
        {
          ops = !ops;
          attempted = !attempted;
          raised = !raised;
          empties = !empties;
          sum_in = !sum_in;
          sum_out = !sum_out;
          t_end = !t;
        })
  in
  let gc = Stat.gc_since g0 in
  let sum f = List.fold_left (fun acc d -> acc + f d) 0 doms in
  let elapsed = List.fold_left (fun m d -> max m d.t_end) t0 doms - t0 in
  let pairs = sum (fun d -> d.ops) / 2 and ops = sum (fun d -> d.ops) in
  let secs = float_of_int elapsed *. 1e-9 in
  let ns_per_pair =
    float_of_int elapsed *. float_of_int domains /. float_of_int (max 1 pairs)
  in
  let errors =
    List.filter_map Fun.id
      [
        (let e = sum (fun d -> d.empties) in
         if e > 0 then
           Some (Printf.sprintf "%d dequeues found the queue empty after own enqueue" e)
         else None);
        (if q.size () <> 0 || not (q.empty ()) then
           Some (Printf.sprintf "queue not drained: %d left" (q.size ()))
         else None);
        (if sum (fun d -> d.sum_in) <> sum (fun d -> d.sum_out) then
           Some "dequeued values differ from enqueued values"
         else None);
        (match q.check () with Ok () -> None | Error e -> Some ("invariants: " ^ e));
        (if Prim.plausible ~cas_ns ~ns_per_pair then None
         else
           Some
             (Printf.sprintf
                "plausibility gate: %.1f ns/pair is below %.0f x cas (%.1f ns)"
                ns_per_pair Prim.min_pair_cas cas_ns));
      ]
  in
  let counter name = Option.value (M.value reg ("q." ^ name)) ~default:0 in
  let slow =
    match M.find reg "q.slow_entries" with
    | Some _ -> counter "slow_entries"
    | None -> counter "help_events"
  in
  let layer =
    [
      ("core.words_per_op", gc.words /. float_of_int (max 1 ops));
      ("core.minor_gcs", float_of_int gc.minors /. secs);
    ]
    @
    match spans with
    | None -> []
    | Some sp ->
        let enq = Spans.durations sp Core_enq and deq = Spans.durations sp Core_deq in
        [
          ("core.enq_ns_p50", Stat.percentile enq 50.);
          ("core.enq_ns_p99", Stat.percentile enq 99.);
          ("core.deq_ns_p50", Stat.percentile deq 50.);
          ("core.deq_ns_p99", Stat.percentile deq 99.);
          ("core.slow_path_share", float_of_int slow /. float_of_int (max 1 ops));
        ]
  in
  {
    Phase.setup_ns = t0 - t_setup;
    attempted = sum (fun d -> d.attempted);
    failed = sum (fun d -> d.raised + d.empties);
    errors;
    throughput = float_of_int ops /. secs;
    latency_us = Phase.ns_to_us ns_per_pair;
    layer;
  }
