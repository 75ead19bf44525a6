(* The DPOR litmus library: every model-checked subject and scenario of
   the repository, one row each. A row names its queue by registry spec
   (docs/BACKENDS.md) and carries its init, scripts, certified step
   bound, schedule floor and verdict; [wfq_check dpor] and the tests
   iterate these rows, so a new backend or seeded fault gets DPOR
   coverage from one row here. *)

type expect =
  | Pass  (** every explored trace linearizable and conserving *)
  | Must_fail of int
      (** a seeded bug: DPOR must find it and shrink the counterexample
          to at most this many forced decisions *)

type row = {
  queue : string;  (** the subject's [wfq_check --queue] name *)
  name : string;
  spec : string;  (** the registry spec, for {!Check.of_spec} *)
  init : int list;  (** pre-enqueued before any fiber starts *)
  scripts : Check.script list;
  bound : int option;
      (** certified per-fiber step bound: sharp, the DPOR-exhaustive
          maximum measured on [spec] *)
  floor : int;  (** the schedule cap is raised to at least this *)
  step_limit : int option;
  expect : expect;
}

let row queue spec name ?(init = []) ?bound ?(floor = 0) ?step_limit
    ?(expect = Pass) scripts =
  { queue; name; spec; init; scripts; bound; floor; step_limit; expect }

(* The [wfq_check] subject names, each the spec it stands for. *)
let subjects =
  [
    ("ms", "lf");
    ("kp-base", "kp-opt12?help=all&phase=scan");
    ("kp-opt12", "kp-opt12");
    (* one fast round, then the slow-path descriptor in every operation,
       including the batch dequeue's single-CAS prefix grab *)
    ("kp-fps", "fps?mf=1");
    (* eager scans and a tiny pool: maximum recycling pressure *)
    ("kp-hp", "kp-hp?scan-threshold=1&pool-capacity=64");
    (* capacity 2 so the shared scenarios (<= 2 values in flight) never
       overflow; one fast round plus the helping slow path *)
    ("ring", "ring?capacity=2&mf=1");
    ("polylog", "polylog");
  ]

let spec_of queue = Option.value (List.assoc_opt queue subjects) ~default:queue

let shared : (string * Check.script list) list =
  [
    ("enq-race", [ [ `Enq 1 ]; [ `Enq 2 ] ]);
    ("enq-vs-deq", [ [ `Enq 1 ]; [ `Deq ] ]);
    ("pairs", [ [ `Enq 1; `Deq ]; [ `Enq 2; `Deq ] ]);
    ("prod-cons", [ [ `Enq 1; `Enq 2 ]; [ `Deq; `Deq ] ]);
    ("three-way", [ [ `Enq 1 ]; [ `Enq 2 ]; [ `Deq; `Deq; `Deq ] ]);
  ]

(* The shared scenarios over any simulator-safe spec, unbounded. *)
let generic queue =
  List.map
    (fun (name, scripts) -> row queue (spec_of queue) name scripts)
    shared

(* Batch litmuses for the KP family: one descriptor publication covers
   the whole batch, so the races worth covering are helpers completing
   a batch's remaining suffix and two batches interleaving while each
   keeps intra-batch FIFO order (the checker's per-thread program-order
   constraint pins it). A bound belongs to the spec it was measured on
   ([bounds]: name, bound, schedule floor): the base configuration's
   Help_all + Phase_scan scans take more steps than kp-opt12's, and of
   its rows only b-enq-race exhausts (273,021 traces; the others pass
   2,000,000 uncapped), so only that one carries a bound. *)
let kp_batch queue ~bounds =
  let r name scripts =
    match List.assoc_opt name bounds with
    | Some (bound, floor) -> row queue (spec_of queue) name ~bound ~floor scripts
    | None -> row queue (spec_of queue) name scripts
  in
  [
    (* after the batch's link CAS lands, either side may be the one
       completing the suffix *)
    r "b-enq-vs-deq" [ [ `Enq_batch [ 1; 2 ] ]; [ `Deq; `Deq ] ];
    (* batches may interleave at the batch granularity but never within
       one *)
    r "b-enq-race" [ [ `Enq_batch [ 1; 2 ] ]; [ `Enq_batch [ 3; 4 ] ] ];
    (* an over-asking batch dequeue: the unserved suffix must answer
       Empty at one observed-empty point *)
    r "b-deq" [ [ `Enq_batch [ 1; 2 ] ]; [ `Deq_batch 3 ] ];
  ]

(* The fast-path/slow-path queue's batch litmuses: the batch enqueue
   publishes a pre-linked chain with one link CAS, and the fast batch
   dequeue claims the sentinel once, walks the immutable next chain
   (capped at the observed tail) and jumps [head] over the whole prefix
   with one CAS. The corners are the jump's failure leg, the tail cap
   and helpers finishing a chain's tail jump. *)
let fps_batch =
  let r = row "kp-fps" (spec_of "kp-fps") in
  [
    (* whoever loses the sentinel claim helps; the grab's jump CAS
       either lands (both elements linearize at the jump) or fails
       because the helper swung head, delivering exactly one *)
    r "b-grab-vs-deq" ~init:[ 1; 2; 3 ] ~bound:62 [ [ `Deq_batch 2 ]; [ `Deq ] ];
    (* the walk must stop at the observed last node so the head jump
       never overtakes tail (the MS invariant enqueuers rely on) *)
    r "b-grab-vs-enq" ~init:[ 1 ] ~bound:48 [ [ `Deq_batch 2 ]; [ `Enq 2 ] ];
    (* one link CAS publishes the chain; either side may finish the
       tail jump *)
    r "b-chain-vs-deq" ~bound:80 [ [ `Enq_batch [ 1; 2 ] ]; [ `Deq; `Deq ] ];
    (* every operation on the slow path: a helper of the batch dequeue
       must read the sentinel's claim word after the descriptor, or it
       re-records a sentinel the batch already consumed and delivers an
       element twice. Unbounded: it does not exhaust at 200,000. *)
    row "kp-fps" "fps?mf=0" "b-deq" [ [ `Enq_batch [ 1; 2 ] ]; [ `Deq_batch 3 ] ];
  ]

(* The ring's own library: each row picks the capacity and fast-path
   budget that make its protocol corner reachable in a handful of
   operations. [mf=0] sends every operation through the helping slow
   path (stage-1 claim, stage-2 install, publish), where the
   claim-rollback and hand-off races live. Bounded rows are judged
   against the bounded-queue specification. *)
let ring =
  let r ~capacity ~mf =
    row "ring" (Printf.sprintf "ring?capacity=%d&mf=%d" capacity mf)
  in
  [
    r ~capacity:2 ~mf:1 "enq-race" [ [ `Enq 1 ]; [ `Enq 2 ] ];
    r ~capacity:2 ~mf:1 "pairs" [ [ `Enq 1; `Deq ]; [ `Enq 2; `Deq ] ];
    (* two slow enqueues race stage-1 claims on the same position *)
    r ~capacity:2 ~mf:0 "claim-rollback" [ [ `Enq 1 ]; [ `Enq 2 ] ];
    (* enqueue-on-full vs dequeue must linearize exactly where the
       bounded spec says it may *)
    r ~capacity:1 ~mf:0 "full-race" ~init:[ 9 ] [ [ `Try_enq 1 ]; [ `Deq ] ];
    (* dequeue-on-empty against a slow enqueue *)
    r ~capacity:1 ~mf:0 "empty-race" [ [ `Enq 1 ]; [ `Deq ] ];
    (* two slow dequeues over one element: the helping hand-off plus
       the loser's empty answer *)
    r ~capacity:2 ~mf:0 "help-handoff" ~init:[ 1 ] [ [ `Deq ]; [ `Deq ] ];
    (* a capacity-1 ring driven past 2*capacity positions *)
    r ~capacity:1 ~mf:1 "wraparound"
      [ [ `Try_enq 1; `Try_enq 2; `Try_enq 3 ]; [ `Deq; `Deq; `Deq ] ];
    (* a slow batch claims a run of slots one descriptor drives; the
       racing dequeuer finds the claim and must complete the batch's
       suffix before taking, so the partial-batch record is covered *)
    r ~capacity:1 ~mf:0 "b-claim-suffix" ~bound:49 ~floor:1_700_000
      [ [ `Try_enq_batch [ 1; 2 ] ]; [ `Deq ] ];
    (* every element lands on the same physical slot, one lap apart,
       and the batch dequeue chases it across laps *)
    r ~capacity:1 ~mf:1 "b-wraparound" ~bound:14
      [ [ `Try_enq_batch [ 1; 2; 3 ] ]; [ `Deq_batch 3 ] ];
    (* one free slot, a two-element batch and a racing dequeue: the
       rejected suffix must linearize at a full observation *)
    r ~capacity:2 ~mf:0 "b-partial-full" ~init:[ 9 ] ~bound:60
      ~floor:2_100_000
      [ [ `Try_enq_batch [ 1; 2 ] ]; [ `Deq ] ];
    (* a slow batch dequeue draining a full ring against a bounded
       enqueue *)
    r ~capacity:1 ~mf:0 "b-deq-race" ~init:[ 5 ] ~bound:50 ~floor:2_200_000
      [ [ `Deq_batch 2 ]; [ `Try_enq 1 ] ];
  ]

(* The polylog tournament tree's library. For two threads the tree is
   one root over two leaves, so a two-thread script already runs the
   full propagate path (leaf announce, parent double-refresh merge,
   root block install). The shared pairs/three-way rows have four or
   more ~50-step operations, past any practical trace cap. *)
let polylog =
  let r = row "polylog" "polylog" in
  [
    (* whichever refresh CAS loses must still find its block propagated
       (the double-refresh guarantee) *)
    r "leaf-merge" ~bound:54 [ [ `Enq 1 ]; [ `Enq 2 ] ];
    (* a dequeue sees the fresh root block or linearizes Empty before *)
    r "root-handoff" ~bound:96 [ [ `Enq 1 ]; [ `Deq ] ];
    (* two dequeues resolve adjacent root indices: distinct elements in
       FIFO order *)
    r "deq-index" ~init:[ 1; 2 ] ~bound:100 [ [ `Deq ]; [ `Deq ] ];
    (* a batch is one leaf block: a multi-element block crosses the
       merge while single dequeues chase its elements *)
    r "b-block-vs-deq" ~bound:170 [ [ `Enq_batch [ 1; 2 ] ]; [ `Deq; `Deq ] ];
    (* a block-granular dequeue racing a fresh append *)
    r "b-deq-vs-enq" ~init:[ 1 ] ~bound:115 [ [ `Deq_batch 2 ]; [ `Enq 2 ] ];
  ]

(* The seeded bugs ([fault=…] keys, simulator-only): each row must be
   found and shrunk. *)
let faults =
  let r queue spec name ~shrunk = row queue spec name ~expect:(Must_fail shrunk) in
  [
    (* a fast batch enqueue publishes only the first node of its chain:
       conservation catches the dropped suffix with no interference *)
    r "kp-fps" "fps?mf=1&fault=batch-partial" "batch-partial" ~shrunk:0
      [ [ `Enq_batch [ 1; 2 ] ]; [ `Deq ] ];
    (* fast dequeues swing [head] without claiming the sentinel and race
       a slow dequeue that owns it into a duplicate delivery *)
    r "kp-fps" "fps?mf=1&fault=no-claim" "no-claim" ~shrunk:37 ~init:[ 1; 2 ]
      [ [ `Deq; `Deq ]; [ `Deq ] ];
    (* a single refresh per level: a lost race leaves an announced block
       unmerged and its appender spins (a livelock the step limit
       catches) *)
    r "polylog" "polylog?fault=no-double-refresh" "no-double-refresh"
      ~shrunk:58
      [ [ `Enq 1 ]; [ `Enq 2; `Deq ] ];
    (* a slow enqueuer whose install landed rolls its claim back anyway:
       the value stays while the operation reports full *)
    r "ring" "ring?capacity=1&mf=0&fault=rollback-skipped" "rollback-skipped"
      ~shrunk:0
      [ [ `Try_enq 1 ]; [ `Deq ] ];
    (* helpers help at the caller's phase instead of the descriptor's
       own: the livelock of docs/FASTPATH.md, found by DPOR after
       191,347 schedules *)
    r "kp-fps" "fps?mf=0&fault=stale-helper" "stale-helper" ~shrunk:51
      ~init:[ 1 ] ~step_limit:2_000 ~floor:250_000
      [ [ `Deq; `Enq 7 ]; [ `Deq ] ];
  ]

let rows =
  List.concat
    [
      generic "ms";
      generic "kp-base";
      kp_batch "kp-base" ~bounds:[ ("b-enq-race", (47, 300_000)) ];
      generic "kp-opt12";
      kp_batch "kp-opt12"
        ~bounds:
          [
            ("b-enq-vs-deq", (79, 0)); ("b-enq-race", (42, 0)); ("b-deq", (80, 0));
          ];
      generic "kp-fps";
      fps_batch;
      generic "kp-hp";
      ring;
      polylog;
      faults;
    ]

let is_batch r =
  List.exists
    (List.exists (function
      | `Enq_batch _ | `Try_enq_batch _ | `Deq_batch _ -> true
      | `Enq _ | `Try_enq _ | `Deq -> false))
    r.scripts

let for_queue queue =
  match List.filter (fun r -> r.expect = Pass && r.queue = queue) rows with
  | [] -> generic queue
  | rs -> rs

let run ?(max_schedules = 200_000) r =
  Check.run ~mode:Check.Dpor
    ~max_schedules:(max max_schedules r.floor)
    ?step_limit:r.step_limit ?step_bound:r.bound ~init:r.init
    ~queue:(Check.of_spec r.spec) ~scripts:r.scripts ()

let shrunk_length (f : Check.failure) =
  List.length
    (match f.Check.shrunk with Some s -> s.Shrink.forced | None -> f.forced)
