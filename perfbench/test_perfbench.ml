(* The benchmark's own checks: the stream parts telescope, the
   plausibility gate rejects an impossible point, and an injected
   failure is counted rather than raised. Run with
   [dune build @perfbench/perfbench-test]. *)

open Perfbench

let failures = ref 0

let check name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

(* A backend whose every 50th enqueue raises: kp-opt12 otherwise. *)
module Faulty : Wfq_core.Queue_intf.BACKEND = struct
  module K = (val Wfq_core.Backends.find "kp-opt12")

  let id = "test-faulty"
  let label = "faulty kp-opt12"
  let family = "test"
  let capacity = None
  let sim_safe = false
  let calls = Atomic.make 0

  module Make (A : Wfq_primitives.Atomic_intf.ATOMIC) = struct
    include K.Make (A)

    let enqueue t ~tid v =
      if Atomic.fetch_and_add calls 1 mod 50 = 49 then failwith "injected"
      else enqueue t ~tid v
  end
end

let () = Wfq_core.Backend_registry.register (module Faulty)
let seconds = 0.2

let telescoping () =
  let p = Stream.split ~gen:(100, 130) ~enq:(130, 190) ~deq:(170, 260) ~event:(100, 260) in
  check "parts of a sample add up to its sojourn, overlap included" (Stream.adds_up p);
  check "the overlapping dequeue gives a negative residency" (p.residency = -20);
  let gap = Stream.split ~gen:(100, 130) ~enq:(135, 190) ~deq:(170, 260) ~event:(100, 260) in
  check "a gap between spans breaks the identity" (not (Stream.adds_up gap));
  let spans = Spans.create ~domains:2 ~capacity:(1 lsl 14) in
  let ph = Stream.run ~backend:"ring" ~seconds ~seed:3 ~spans () in
  check "a traced stream phase passes its checks" (ph.errors = []);
  let parts, broken = Stream.parts_of_spans spans ~n:(int_of_float (Stream.rate *. seconds)) in
  check "every traced event's parts add up to its sojourn"
    (Array.length parts > 0 && broken = 0)

let gate () =
  check "6.9 ns/pair against a 5 ns CAS is rejected"
    (not (Prim.plausible ~cas_ns:5. ~ns_per_pair:6.9));
  check "300 ns/pair against a 5 ns CAS passes" (Prim.plausible ~cas_ns:5. ~ns_per_pair:300.);
  let ph = Pairs.run ~backend:"ring" ~domains:2 ~seconds ~seed:1 ~cas_ns:1e9 () in
  check "a pairs phase faster than its floor fails its checks"
    (List.exists (fun e -> String.starts_with ~prefix:"plausibility gate" e) ph.errors)

let injected () =
  let ph = Pairs.run ~backend:"test-faulty" ~domains:2 ~seconds ~seed:1 ~cas_ns:1. () in
  check "pairs: injected enqueue failures are counted" (ph.failed > 0 && ph.failed < ph.attempted);
  check "pairs: and the run's output stays correct" (ph.errors = []);
  let ph = Stream.run ~backend:"test-faulty" ~seconds ~seed:2 () in
  check "stream: lost events are counted as failed" (ph.failed > 0);
  check "stream: every other event is delivered once"
    (List.for_all (fun e -> not (String.ends_with ~suffix:"never delivered" e)) ph.errors)

let clean_phases () =
  List.iter
    (fun b ->
      let p = Pairs.run ~backend:b ~domains:2 ~seconds ~seed:1 ~cas_ns:1. () in
      let f = Fanout.run ~backend:b ~workers:2 ~seconds ~seed:1 () in
      check (b ^ ": pairs and fanout pass their checks with no failure")
        (p.errors = [] && f.errors = [] && p.failed = 0 && f.failed = 0))
    [ "kp-opt12"; "fps-pooled"; "ring" ]

let () =
  telescoping ();
  gate ();
  injected ();
  clean_phases ();
  if !failures > 0 then begin
    Printf.printf "%d checks failed\n" !failures;
    exit 1
  end
