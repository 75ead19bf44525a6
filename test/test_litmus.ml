(* The DPOR litmus library (Wfq_sim.Litmus), run as tier-1:

   - every row that exhausts in about two seconds, with its trace count
     and largest per-fiber step count pinned (the same figures
     [wfq_check dpor] prints), plus four slower ring rows the ring
     suites used to run by hand;
   - kp-base's and kp-fps's (every operation slow) batch dequeues past
     the schedule at which a helper once delivered an element twice;
   - every seeded fault, which DPOR must find after a pinned number of
     schedules, report as what it is (lost element or livelock) and
     shrink within the row's ceiling, its counterexample carrying the
     replayed history;
   - the library's specs: each resolves on the simulator plane, and
     each fault spec is refused on the real plane.

   A moved pin is a finding about the queue or the checker to explain,
   not a number to update. The longer rows run in CI through
   [wfq_check dpor]. *)

module Ck = Wfq_sim.Check
module L = Wfq_sim.Litmus

(* queue, row, Mazurkiewicz traces, max steps per fiber *)
let pins =
  [
    ("ms", "enq-race", 30, 14);
    ("ms", "enq-vs-deq", 5, 11);
    ("ms", "pairs", 360, 24);
    ("ms", "prod-cons", 53, 21);
    ("ms", "three-way", 12_272, 25);
    ("kp-opt12", "enq-vs-deq", 1_095, 51);
    ("kp-opt12", "b-enq-vs-deq", 1_782, 79);
    ("kp-opt12", "b-deq", 1_695, 80);
    ("kp-fps", "enq-race", 46, 36);
    ("kp-fps", "enq-vs-deq", 6, 41);
    ("kp-fps", "prod-cons", 187, 80);
    ("kp-fps", "b-grab-vs-enq", 7, 48);
    ("kp-fps", "b-chain-vs-deq", 38, 80);
    ("kp-hp", "enq-vs-deq", 7_722, 71);
    ("ring", "enq-race", 20, 32);
    ("ring", "wraparound", 20, 16);
    ("ring", "b-wraparound", 6, 14);
    ("polylog", "leaf-merge", 90, 54);
    ("polylog", "root-handoff", 224, 96);
    ("polylog", "deq-index", 566, 100);
    ("polylog", "b-block-vs-deq", 14_665, 170);
    ("polylog", "b-deq-vs-enq", 332, 115);
  ]

(* Slower rows, each under about 20 s; help-handoff exhausts past the
   default cap, at 210,823 traces. *)
let slow_pins =
  [
    ("ring", "claim-rollback", 28_741, 45);
    ("ring", "full-race", 103_742, 44);
    ("ring", "empty-race", 29_734, 43);
    ("ring", "help-handoff", 210_823, 37);
  ]

let find queue name =
  List.find (fun (r : L.row) -> r.queue = queue && r.name = name) L.rows

let test_pin (queue, name, traces, steps) () =
  let r = L.run ~max_schedules:300_000 (find queue name) in
  (match r.failure with
  | None -> ()
  | Some f -> Alcotest.failf "%s %s: %a" queue name Ck.pp_failure f);
  Alcotest.(check bool) "exhausted" true r.exhausted;
  Alcotest.(check int) "traces" traces r.schedules;
  Alcotest.(check int) "max steps per fiber" steps r.max_fiber_steps

(* fault, schedules up to the find, what the found failure reports.
   stale-helper moved from 203,561 to 191,347 when the fast-path queue
   took the base queue's [help_finish_enq]: it re-reads [tail] before
   the second descriptor read, so the finishing helper issues its
   accesses in another order and DPOR reaches the livelock at another
   point of its exploration; the counterexample still shrinks to 51. *)
let finds =
  [
    ("batch-partial", 1, "conservation");
    ("no-claim", 13, "conservation");
    ("no-double-refresh", 881, "step limit");
    ("rollback-skipped", 1, "conservation");
    ("stale-helper", 191_347, "step limit");
  ]

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

let test_fault (row : L.row) () =
  let ceiling =
    match row.expect with Must_fail c -> c | Pass -> assert false
  in
  let r = L.run row in
  match r.failure with
  | None -> Alcotest.failf "%s: the seeded bug escaped DPOR" row.name
  | Some f ->
      let _, schedules, kind = List.find (fun (n, _, _) -> n = row.name) finds in
      Alcotest.(check int) "found after" schedules r.schedules;
      Alcotest.(check bool) ("reported as " ^ kind) true (contains f.message kind);
      let len = L.shrunk_length f in
      Alcotest.(check bool)
        (Printf.sprintf "shrunk to <= %d decisions (got %d)" ceiling len)
        true (len <= ceiling);
      Alcotest.(check bool) "shrunk" true (f.shrunk <> None);
      (* the replay starts from the row's pre-filled elements *)
      Alcotest.(check bool) "replayed history recorded" true
        (List.length f.history >= List.length row.init && f.history <> [])

(* Before the batch dequeue read the claim word after the descriptor, a
   helper could re-record a sentinel the batch had just consumed and
   append its successor twice: "2 enq, 3 deq" after 3,152 schedules on
   kp-base, and after 15,048 on kp-fps's b-deq row ([fps?mf=0], every
   operation slow), whose slow path kept the old order while it was a
   copy of the base queue's. Neither row exhausts (kp-base passes
   2,000,000 schedules), so both run past that point uncertified. *)
let test_batch_deq queue () =
  let row = find queue "b-deq" in
  let r = L.run ~max_schedules:20_000 row in
  match r.failure with
  | None -> Alcotest.(check int) "schedules" 20_000 r.schedules
  | Some f -> Alcotest.failf "%s b-deq: %a" queue Ck.pp_failure f

let test_specs () =
  List.iter
    (fun (r : L.row) ->
      ignore (Ck.of_spec r.spec);
      if r.expect <> Pass then
        match Wfq_core.Backends.find r.spec with
        | _ -> Alcotest.failf "%S accepted on the real plane" r.spec
        | exception Invalid_argument _ -> ())
    L.rows;
  List.iter (fun (_, spec) -> ignore (Ck.of_spec spec)) L.subjects

let () =
  let faults = List.filter (fun (r : L.row) -> r.expect <> Pass) L.rows in
  Alcotest.run "litmus"
    [
      ("specs", [ Alcotest.test_case "resolve; faults sim-only" `Quick test_specs ]);
      ( "pinned rows",
        List.map
          (fun ((q, n, t, s) as pin) ->
            let speed = if List.mem pin slow_pins then `Slow else `Quick in
            Alcotest.test_case (Printf.sprintf "%s %s %d/%d" q n t s) speed
              (test_pin pin))
          (pins @ slow_pins)
        @ [
            Alcotest.test_case "kp-base b-deq: no duplicate in 20k" `Quick
              (test_batch_deq "kp-base");
            Alcotest.test_case "kp-fps b-deq: no duplicate in 20k" `Quick
              (test_batch_deq "kp-fps");
          ] );
      ( "seeded faults",
        List.map
          (fun (r : L.row) ->
            let speed = if r.floor > 0 then `Slow else `Quick in
            Alcotest.test_case (r.queue ^ " " ^ r.name) speed (test_fault r))
          faults );
    ]
