(* [stream]: open loop. One producer domain sends a seeded Poisson
   schedule at a fixed rate into a 2-shard round-robin [Shard] over
   the backend; one consumer domain polls it. The rate is below every
   backend's one-producer/one-consumer saturation, so the queue is
   mostly empty: uncontended enqueues, empty-poll dequeues, shard
   routing and steal-on-empty. Each sojourn is timed from the event's
   intended send time, so a stalled producer counts against the
   events it delays. *)

module Sh = Wfq_shard.Shard.Make (Wfq_primitives.Real_atomic)
module Clock = Wfq_harness.Clock
module Arrivals = Wfq_harness.Arrivals

let now = Phase.now
let rate = 50_000.
let shards = 2

type side = {
  received : int;
  duplicates : int;
  raised : int;
  refusals : int;  (** full-queue refusals the producer retried *)
  t_end : int;
}

(* One traced event's sojourn cut at its span boundaries: the
   generator's lateness, the shard enqueue, the wait in the queue and
   the shard dequeue. *)
type parts = { gen_late : int; enq : int; residency : int; deq : int; sojourn : int }

let split ~gen:(gs, ge) ~enq:(es, ee) ~deq:(ds, de) ~event:(vs, ve) =
  { gen_late = ge - gs; enq = ee - es; residency = ds - ee; deq = de - ds; sojourn = ve - vs }

(* The four parts must telescope exactly to the sojourn: any gap or
   overlap means the spans do not share their boundary timestamps. *)
let adds_up p = p.gen_late + p.enq + p.residency + p.deq = p.sojourn

let no_span = min_int

(* Per-event parts of every event whose four spans are all retained,
   and how many of those do not add up. *)
let parts_of_spans sp ~n =
  let a () = Array.make n no_span in
  let gs = a () and ge = a () and es = a () and ee = a () in
  let ds = a () and de = a () and vs = a () and ve = a () in
  Spans.iter sp (fun _ kind ~req ~start ~stop ->
      let put s e =
        s.(req) <- start;
        e.(req) <- stop
      in
      match kind with
      | Gen -> put gs ge
      | Shard_enq -> put es ee
      | Shard_deq -> put ds de
      | Event -> put vs ve
      | _ -> ());
  let parts = ref [] and broken = ref 0 in
  for i = n - 1 downto 0 do
    if gs.(i) <> no_span && es.(i) <> no_span && ds.(i) <> no_span && vs.(i) <> no_span
    then begin
      let p =
        split ~gen:(gs.(i), ge.(i)) ~enq:(es.(i), ee.(i)) ~deq:(ds.(i), de.(i))
          ~event:(vs.(i), ve.(i))
      in
      if not (adds_up p) then incr broken;
      parts := p :: !parts
    end
  done;
  (Array.of_list !parts, !broken)

let run ~backend ~seconds ~seed ?spans () =
  let t_setup = now () in
  let n = max 1 (int_of_float (rate *. seconds)) in
  let schedule = Arrivals.generate Poisson ~seed ~rate ~n in
  let q : int Sh.t =
    Sh.create ~policy:Round_robin ~backend:(Registered backend) ~shards
      ~num_threads:2 ()
  in
  let deq_done = Array.make n 0 in
  let lost = Atomic.make 0 and sent_all = Atomic.make false in
  Option.iter Spans.reset spans;
  let traced = Option.is_some spans in
  let g0 = Stat.gc_now () in
  let produce ~t0 =
    let buf = Option.map Spans.local spans in
    let refusals = ref 0 and raised = ref 0 in
    (* A full queue is retried, and the retries stay inside the
       event's sojourn; any other exception loses the event. *)
    let rec put i =
      match Sh.enqueue q ~tid:0 i with
      | () -> true
      | exception Wfq_core.Ring_queue.Ring_full ->
          incr refusals;
          Domain.cpu_relax ();
          put i
      | exception _ ->
          incr raised;
          Atomic.incr lost;
          false
    in
    for i = 0 to n - 1 do
      let intended = t0 + schedule.(i) in
      Clock.wait_until intended;
      let send = now () in
      let ok = put i in
      match buf with
      | None -> ()
      | Some b ->
          let sent = now () in
          Spans.record b Gen ~req:i ~start:intended ~stop:send;
          if ok then Spans.record b Shard_enq ~req:i ~start:send ~stop:sent
    done;
    Atomic.set sent_all true;
    { received = 0; duplicates = 0; raised = !raised; refusals = !refusals; t_end = 0 }
  in
  let consume ~t0 =
    let buf = Option.map Spans.local spans in
    let received = ref 0 and duplicates = ref 0 and raised = ref 0 in
    let t_end = ref t0 and fin = ref false in
    while not !fin do
      let all_sent = Atomic.get sent_all in
      let s = if traced then now () else 0 in
      match Sh.dequeue q ~tid:1 with
      | Some i -> (
          let d = now () in
          t_end := d;
          if deq_done.(i) <> 0 then incr duplicates
          else begin
            deq_done.(i) <- d;
            incr received
          end;
          if !received + Atomic.get lost >= n then fin := true;
          match buf with
          | None -> ()
          | Some b ->
              Spans.record b Shard_deq ~req:i ~start:s ~stop:d;
              Spans.record b Event ~req:i ~start:(t0 + schedule.(i)) ~stop:d)
      | None ->
          (* A sweep that started after the last send and found every
             shard empty proves nothing more will come. *)
          if all_sent then fin := true
      | exception _ -> incr raised
    done;
    { received = !received; duplicates = !duplicates; raised = !raised; refusals = 0; t_end = !t_end }
  in
  let t0, sides =
    Phase.on_domains 2 (fun tid ~t0 -> if tid = 0 then produce ~t0 else consume ~t0)
  in
  let gc = Stat.gc_since g0 in
  let p, c = (List.nth sides 0, List.nth sides 1) in
  let lost = Atomic.get lost in
  let sojourns = Array.make c.received 0 in
  let k = ref 0 in
  Array.iteri
    (fun i d ->
      if d <> 0 && !k < c.received then begin
        sojourns.(!k) <- d - (t0 + schedule.(i));
        incr k
      end)
    deq_done;
  let missing = n - c.received - lost in
  let traced_parts =
    Option.map (fun sp -> parts_of_spans sp ~n) spans
  in
  let errors =
    List.filter_map Fun.id
      [
        (if c.duplicates > 0 then Some (Printf.sprintf "%d events delivered twice" c.duplicates)
         else None);
        (if missing > 0 then Some (Printf.sprintf "%d events never delivered" missing) else None);
        (match Sh.check_quiescent_invariants q with
        | Ok () -> None
        | Error e -> Some ("shard invariants: " ^ e));
        (match traced_parts with
        | Some (_, broken) when broken > 0 ->
            Some (Printf.sprintf "%d events whose parts do not add up to the sojourn" broken)
        | _ -> None);
      ]
  in
  let secs = float_of_int (c.t_end - t0) *. 1e-9 in
  let events = float_of_int (max 1 c.received) in
  let stats = Sh.stats q in
  let total f = float_of_int (Array.fold_left (fun acc s -> acc + f s) 0 stats) in
  let pct a p = Stat.percentile a p in
  let layer =
    [
      ("stream.sojourn_p99_us", Phase.ns_to_us (pct sojourns 99.));
      ("stream.sojourn_p999_us", Phase.ns_to_us (pct sojourns 99.9));
      ("stream.words_per_event", gc.words /. events);
      ("stream.minor_gcs", float_of_int gc.minors /. secs);
      ("shard.empty_deq_per_event", total (fun s -> s.Wfq_shard.Shard.empty_sweeps) /. events);
      ("shard.steals_per_event", total (fun s -> s.Wfq_shard.Shard.steals) /. events);
      ("core.refusals", float_of_int p.refusals);
    ]
    @
    match traced_parts with
    | None -> []
    | Some (parts, _) ->
        let col f = Array.map f parts in
        List.concat_map
          (fun (name, a) -> [ (name ^ "_p50", pct a 50.); (name ^ "_p99", pct a 99.) ])
          [
            ("stream.gen_late_ns", col (fun p -> p.gen_late));
            ("shard.enq_ns", col (fun p -> p.enq));
            ("stream.residency_ns", col (fun p -> p.residency));
            ("shard.deq_ns", col (fun p -> p.deq));
          ]
  in
  {
    Phase.setup_ns = t0 - t_setup;
    attempted = n;
    failed = lost + c.raised;
    errors;
    throughput = float_of_int c.received /. secs;
    latency_us = Phase.ns_to_us (pct sojourns 50.);
    layer;
  }
