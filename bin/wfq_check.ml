(* Model-checking CLI over the litmus library (Wfq_sim.Litmus): DPOR
   (exhaustive-equivalent), systematic preemption-bounded exploration,
   or random-schedule fuzzing of a queue under the deterministic
   simulator, checking linearizability of every explored interleaving.

     wfq_check dpor --queue kp-opt12 --out _counterexamples
     wfq_check dpor --queue 'ring?capacity=4&mf=0'
     wfq_check dpor --fault stale-helper
     wfq_check explore --queue kp-base --budget 2
     wfq_check fuzz --queue kp-hp --count 5000
     wfq_check stall --queue kp-base

   A --queue is a litmus subject (ms, kp-base, kp-opt12, kp-fps, kp-hp,
   ring, polylog) or any simulator-safe registry spec. [dpor] exits
   non-zero on a violation and writes the shrunk counterexample
   (schedule, replayed history, checker verdict) under --out, for CI to
   upload as a build artifact. *)

open Cmdliner
module S = Wfq_sim.Scheduler
module Ck = Wfq_sim.Check
module L = Wfq_sim.Litmus

let sim_ops queue = Ck.of_spec (L.spec_of queue)

let report name (r : Ck.report) =
  match r.failure with
  | None ->
      Printf.printf "  %-12s %6d schedules  %s\n" name r.schedules
        (if r.exhausted then "exhausted: all explored schedules linearizable"
         else "cap reached, no violation found")
  | Some f ->
      Format.printf "  %-12s FAILED after %d schedules@.%a@." name r.schedules
        Ck.pp_failure f;
      exit 1

(* [explore] and [fuzz] run the shared scenarios through Check.run. *)
let sweep queue mode =
  let ops = sim_ops queue in
  List.iter
    (fun (name, scripts) ->
      report name
        (Ck.run ~mode:(mode scripts) ~max_schedules:200_000 ~queue:ops ~scripts
           ()))
    L.shared

let run_explore queue budget =
  Printf.printf
    "systematic exploration of %s (every schedule with <= %d preemptions)\n"
    queue budget;
  sweep queue (fun scripts ->
      Ck.Preemption_bounded
        (if List.length scripts >= 3 then min budget 1 else budget))

let run_fuzz queue count use_pct =
  Printf.printf "%s of %s (%d seeds per scenario)\n"
    (if use_pct then "PCT fuzzing" else "random-schedule fuzzing")
    queue count;
  sweep queue (fun _ ->
      if use_pct then Ck.Pct { count; change_points = 3 }
      else Ck.Fuzz { seed0 = 0; count })

(* DPOR model checking (wfq_check dpor): run the library rows of one
   subject, or one seeded fault, and on failure write the shrunk
   counterexample to a file that CI uploads as a build artifact. *)

let write_counterexample ~out_dir (row : L.row) f =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let path = Filename.concat out_dir (row.queue ^ "-" ^ row.name ^ ".trace") in
  let oc = open_out path in
  Format.fprintf
    (Format.formatter_of_out_channel oc)
    "queue: %s@.spec: %s@.scenario: %s@.@.%a@." row.queue row.spec row.name
    Ck.pp_failure f;
  close_out oc;
  path

(* One row: its line, and whether it met its verdict. *)
let check_row ~max_schedules ~out_dir (row : L.row) =
  let r = L.run ~max_schedules row in
  match (row.expect, r.failure) with
  | Pass, None ->
      Printf.printf "  %-14s %7d traces  %s  (max steps per op fiber: %d%s)\n"
        row.name r.schedules
        (if r.exhausted then "exhausted: every trace linearizable"
         else "cap reached, no violation")
        r.max_fiber_steps
        (match row.bound with
        | Some b -> Printf.sprintf ", certified bound %d" b
        | None -> "");
      true
  | Pass, Some f ->
      Printf.printf
        "  %-14s FAILED after %d traces: %s\n\
        \    shrunk to %d decisions; counterexample written to %s\n"
        row.name r.schedules f.message (L.shrunk_length f)
        (write_counterexample ~out_dir row f);
      false
  | Must_fail ceiling, Some f ->
      let len = L.shrunk_length f in
      Printf.printf
        "  found after %d schedules: %s\n\
        \  shrunk to %d decisions (ceiling %d); counterexample written to %s\n"
        r.schedules f.message len ceiling
        (write_counterexample ~out_dir row f);
      len <= ceiling
  | Must_fail _, None ->
      Printf.printf
        "  NOT FOUND after %d schedules — the seeded bug escaped the checker\n"
        r.schedules;
      false

let run_dpor queue max_schedules out_dir fault batch_only =
  let rows =
    match fault with
    | Some (row : L.row) ->
        Printf.printf
          "DPOR vs seeded bug '%s' in %s (a counterexample MUST be found)\n"
          row.name row.spec;
        [ row ]
    | None ->
        Printf.printf
          "DPOR model checking of %s (one schedule per Mazurkiewicz trace)\n"
          queue;
        List.filter
          (fun r -> (not batch_only) || L.is_batch r)
          (L.for_queue queue)
  in
  let ok = List.map (check_row ~max_schedules ~out_dir) rows in
  if List.mem false ok then exit 1

(* Stall demonstration: thread 0 freezes mid-enqueue forever; under the
   wait-free queue its operation still completes. *)
let run_stall queue =
  let ops = sim_ops queue in
  let q = ops.create ~num_threads:2 in
  let fibers =
    [|
      (fun () -> ops.enqueue q ~tid:0 111); (fun () -> ops.enqueue q ~tid:1 222);
    |]
  in
  (* Stall thread 0 a third of the way into its operation. *)
  let probe =
    S.run [| (fun () -> ops.enqueue (ops.create ~num_threads:2) ~tid:0 1) |]
  in
  let stall_at = max 1 (probe.S.steps.(0) / 3) in
  let res = S.run ~stalls:[ (0, stall_at) ] fibers in
  Printf.printf "thread 0 stalled after %d steps (outcome: %s)\n" stall_at
    (match res.S.outcome with
    | S.All_finished -> "all finished"
    | S.Only_stalled_left -> "only stalled thread left"
    | S.Step_limit_hit -> "STEP LIMIT (no progress!)"
    | S.Aborted -> "aborted (unexpected)");
  let rec drain acc =
    match S.ignore_yields (fun () -> ops.dequeue q ~tid:1) with
    | Some v -> drain (v :: acc)
    | None -> List.rev acc
  in
  let drained = drain [] in
  Printf.printf "queue contents after run: [%s]\n"
    (String.concat ";" (List.map string_of_int drained));
  Printf.printf "stalled thread's enqueue %s\n"
    (if List.mem 111 drained then
       "WAS COMPLETED by the helping peer (wait-free helping)"
     else "was lost (no helping: lock-free only)")

(* Step-bound comparison (paper §5.3): worst-case step count of one
   operation by thread 0 while thread 1 performs k operations, maximized
   over adversarial random schedules. Wait-freedom predicts a flat row
   for the KP queue and a growing one for Michael-Scott. *)
let run_steps seeds =
  let fibers queue k =
    let ops = sim_ops queue in
    let q = ops.create ~num_threads:2 in
    [|
      (fun () -> ops.enqueue q ~tid:0 0);
      (fun () ->
        for i = 1 to k do
          ops.enqueue q ~tid:1 i
        done);
    |]
  in
  let worst queue k =
    let acc = ref 0 in
    for seed = 0 to seeds - 1 do
      let res = S.run ~strategy:(S.Random_seeded seed) (fibers queue k) in
      acc := max !acc res.S.steps.(0)
    done;
    !acc
  in
  let ks = [ 1; 2; 5; 10; 20; 50 ] in
  Printf.printf
    "worst-case steps of ONE enqueue by thread 0 vs peer op count\n\
     (max over %d adversarial schedules)\n\n"
    seeds;
  Printf.printf "%-22s" "peer ops k:";
  List.iter (fun k -> Printf.printf "%8d" k) ks;
  print_newline ();
  List.iter
    (fun (label, queue) ->
      Printf.printf "%-22s" label;
      List.iter (fun k -> Printf.printf "%8d" (worst queue k)) ks;
      print_newline ())
    [ ("KP wait-free", "kp-base"); ("MS lock-free", "ms") ];
  print_endline
    "\nExpected: the KP row stays flat (bounded regardless of\n\
     interference); the MS row grows (each peer operation can defeat\n\
     thread 0's CAS once under an adversarial schedule)."

(* --- arguments ----------------------------------------------------- *)

(* A subject name or a spec Check.of_spec accepts; anything else is a
   usage error. *)
let queue_conv =
  let parse q =
    match sim_ops q with
    | _ -> Ok q
    | exception Invalid_argument msg -> Error (`Msg msg)
  in
  Arg.conv (parse, Format.pp_print_string)

let queue_arg ~default =
  let doc =
    "Queue to check: a litmus subject (ms, kp-base, kp-opt12, kp-fps, \
     kp-hp, ring, polylog; each names a registry spec, see \
     Wfq_sim.Litmus) or any simulator-safe registry spec such as \
     'ring?capacity=4&mf=0'. Under dpor a subject runs its rows of the \
     litmus library and any other spec the five shared scenarios, \
     unbounded. A new backend gets DPOR coverage by adding its rows to \
     the library."
  in
  Arg.(value & opt queue_conv default & info [ "queue" ] ~docv:"QUEUE" ~doc)

let fault_arg =
  let faults =
    List.filter_map
      (fun (r : L.row) -> if r.expect = Pass then None else Some (r.name, r))
      L.rows
  in
  let doc =
    Printf.sprintf
      "Check the library row that reinstates the named seeded bug (%s; each \
       a simulator-only fault= spec key); the run succeeds only if a \
       counterexample is found, shrunk within the row's ceiling, and \
       written to --out. A new fault is one key and one row."
      (String.concat ", " (List.map fst faults))
  in
  Arg.(value & opt (some (enum faults)) None & info [ "fault" ] ~docv:"BUG" ~doc)

let max_schedules_arg =
  let doc =
    "Cap on explored schedules per row, raised to the row's schedule floor."
  in
  Arg.(value & opt Spec_arg.pos_int 200_000 & info [ "max-schedules" ] ~doc)

let out_arg =
  let doc = "Directory for counterexample trace files (CI artifacts)." in
  Arg.(value & opt string "_counterexamples" & info [ "out" ] ~docv:"DIR" ~doc)

let batch_only_arg =
  let doc =
    "Run only the rows whose scripts use batch operations (step-bound \
     certified); used by the CI batch smoke job."
  in
  Arg.(value & flag & info [ "batch-only" ] ~doc)

let budget_arg =
  let doc = "Preemption budget for systematic exploration." in
  Arg.(value & opt int 2 & info [ "budget" ] ~doc)

let count_arg =
  let doc = "Number of random schedules for fuzzing." in
  Arg.(value & opt Spec_arg.pos_int 2000 & info [ "count" ] ~doc)

let pct_arg =
  let doc =
    "Use PCT (priority + random change points) instead of uniform random \
     scheduling."
  in
  Arg.(value & flag & info [ "pct" ] ~doc)

let seeds_arg =
  let doc = "Adversarial random schedules per data point." in
  Arg.(value & opt Spec_arg.pos_int 300 & info [ "seeds" ] ~doc)

let () =
  let cmd name doc term = Cmd.v (Cmd.info name ~doc) term in
  let cmds =
    [
      cmd "dpor"
        "DPOR model checking: one schedule per Mazurkiewicz trace, every \
         schedule checked for linearizability and conservation, shrunk \
         counterexamples written as artifacts."
        Term.(
          const run_dpor
          $ queue_arg ~default:"kp-opt12"
          $ max_schedules_arg $ out_arg $ fault_arg $ batch_only_arg);
      cmd "explore" "Systematic preemption-bounded exploration."
        Term.(const run_explore $ queue_arg ~default:"kp-base" $ budget_arg);
      cmd "fuzz" "Random-schedule (or --pct) fuzzing."
        Term.(
          const run_fuzz $ queue_arg ~default:"kp-base" $ count_arg $ pct_arg);
      cmd "stall" "Stall-injection helping demonstration."
        Term.(const run_stall $ queue_arg ~default:"kp-base");
      cmd "steps" "Wait-free vs lock-free worst-case step-bound table."
        Term.(const run_steps $ seeds_arg);
    ]
  in
  let info =
    Cmd.info "wfq_check" ~version:"1.0"
      ~doc:"Model checking for the wait-free queue reproduction."
  in
  exit (Cmd.eval (Cmd.group info cmds))
