(* What one measured phase (one workload on one backend) yields, and
   the domain start line every closed- and open-loop phase shares. *)

type t = {
  setup_ns : int;  (** set-up start to the first timed operation *)
  attempted : int;
  failed : int;  (** operations or requests that raised *)
  errors : string list;  (** failed correctness checks *)
  throughput : float;  (** completed work units per second *)
  latency_us : float;
      (** what one unit of work takes: on the closed loops the mean
          (pair time per domain, request latency), on the open loop the
          median sojourn *)
  layer : (string * float) list;
      (** per-layer metrics, named without the backend suffix *)
}

let now = Wfq_harness.Clock.now_ns

(* Spawn [n] domains running [body i ~t0]; each starts only once all
   are up, at the common start time [t0], which is also when set-up
   ends. Returns [t0] and the bodies' results in order. *)
let on_domains n body =
  let ready = Atomic.make 0 and go = Atomic.make 0 in
  let ds =
    List.init n (fun i ->
        Domain.spawn (fun () ->
            Atomic.incr ready;
            while Atomic.get go = 0 do
              Domain.cpu_relax ()
            done;
            body i ~t0:(Atomic.get go)))
  in
  while Atomic.get ready < n do
    Domain.cpu_relax ()
  done;
  let t0 = now () in
  Atomic.set go t0;
  (t0, List.map Domain.join ds)

let ns_to_us ns = ns /. 1e3
