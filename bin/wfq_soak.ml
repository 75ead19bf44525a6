(* Soak tester: run a randomized mixed workload on a chosen queue across
   several domains for a wall-clock duration, validating conservation
   invariants continuously. Intended for long unattended runs:

     wfq_soak --queue kp-opt12 --threads 8 --seconds 30
     wfq_soak --queue 'ring?capacity=64' --threads 4 --seconds 5
     wfq_soak --list
*)

open Cmdliner
module Qi = Wfq_core.Queue_intf
module Rng = Wfq_primitives.Rng

type totals = {
  mutable enqs : int;
  mutable deq_hits : int;
  mutable deq_empties : int;
  mutable checksum : int; (* sum of enqueued minus sum of dequeued *)
}

let run_soak (module B : Qi.BACKEND) threads seconds seed list_queues =
  if list_queues then begin
    List.iter print_endline (Wfq_core.Backends.ids ());
    exit 0
  end;
  if threads <= 0 then invalid_arg "--threads must be positive";
  Printf.printf "soaking %s: %d domains, %.1fs, seed %d\n%!" B.id threads
    seconds seed;
  let q : int Qi.instance =
    Wfq_core.Backends.instantiate (module B) ~num_threads:(threads + 1) ()
  in
  let stop = Atomic.make false in
  let totals = Array.init threads (fun _ ->
      { enqs = 0; deq_hits = 0; deq_empties = 0; checksum = 0 })
  in
  let worker tid () =
    let rng = Rng.split_for ~seed ~tid in
    let t = totals.(tid) in
    while not (Atomic.get stop) do
      (* Bursts keep the queue length wandering instead of hovering. *)
      let burst = 1 + Rng.below rng 32 in
      if Rng.bool rng then
        for _ = 1 to burst do
          let v = 1 + Rng.below rng 1_000_000 in
          (* A full bounded queue refuses the value; it is not counted. *)
          if q.try_enq ~tid v then begin
            t.enqs <- t.enqs + 1;
            t.checksum <- t.checksum + v
          end
        done
      else
        for _ = 1 to burst do
          match q.deq ~tid with
          | Some v ->
              t.deq_hits <- t.deq_hits + 1;
              t.checksum <- t.checksum - v
          | None -> t.deq_empties <- t.deq_empties + 1
        done
    done
  in
  let t0 = Unix.gettimeofday () in
  let domains = List.init threads (fun tid -> Domain.spawn (worker tid)) in
  Unix.sleepf seconds;
  Atomic.set stop true;
  List.iter Domain.join domains;
  let dt = Unix.gettimeofday () -. t0 in
  (* Drain and validate conservation: every enqueued value (as a sum)
     must be accounted for by dequeues plus leftovers. *)
  let leftover_count = ref 0 and leftover_sum = ref 0 in
  let rec drain () =
    match q.deq ~tid:threads with
    | Some v ->
        incr leftover_count;
        leftover_sum := !leftover_sum + v;
        drain ()
    | None -> ()
  in
  drain ();
  let enqs = Array.fold_left (fun a t -> a + t.enqs) 0 totals in
  let hits = Array.fold_left (fun a t -> a + t.deq_hits) 0 totals in
  let empties = Array.fold_left (fun a t -> a + t.deq_empties) 0 totals in
  let checksum = Array.fold_left (fun a t -> a + t.checksum) 0 totals in
  Printf.printf
    "ops: %d enq, %d deq, %d empty-deq in %.2fs (%.0f ops/s)\n" enqs hits
    empties dt
    (float_of_int (enqs + hits + empties) /. dt);
  let count_ok = enqs - hits = !leftover_count in
  let sum_ok = checksum = !leftover_sum in
  Printf.printf "conservation: count %s, checksum %s (%d left in queue)\n"
    (if count_ok then "OK" else "VIOLATED")
    (if sum_ok then "OK" else "VIOLATED")
    !leftover_count;
  if not (count_ok && sum_ok) then exit 1

let queue_arg =
  let doc =
    "Backend spec to soak: a registered id (see --list) with optional \
     key=value overrides, e.g. 'fps-pooled?mf=8' (docs/BACKENDS.md)."
  in
  Arg.(
    value
    & opt Spec_arg.conv (Wfq_core.Backends.find "kp-opt12")
    & info [ "queue" ] ~docv:"SPEC" ~doc)

let threads_arg =
  let doc = "Worker domains." in
  Arg.(value & opt int 4 & info [ "threads" ] ~doc)

let seconds_arg =
  let doc = "Wall-clock duration in seconds." in
  Arg.(value & opt float 10.0 & info [ "seconds" ] ~doc)

let seed_arg =
  let doc = "Workload seed." in
  Arg.(value & opt int 1 & info [ "seed" ] ~doc)

let list_arg =
  let doc = "List the registered backend ids and exit." in
  Arg.(value & flag & info [ "list" ] ~doc)

let () =
  let info =
    Cmd.info "wfq_soak" ~version:"1.0"
      ~doc:"Long-running randomized soak test with conservation checking."
  in
  let term =
    Term.(
      const run_soak $ queue_arg $ threads_arg $ seconds_arg $ seed_arg
      $ list_arg)
  in
  exit (Cmd.eval (Cmd.v info term))
