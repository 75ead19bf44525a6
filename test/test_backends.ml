(* The registry-driven conformance battery (docs/BACKENDS.md): every
   backend registered in Wfq_core.Backends automatically runs

   - the sequential suite (fifo basics, empty-dequeue stability,
     drain/refill, differential vs Stdlib.Queue),
   - a real-domains pairs stress,
   - the (bounded-aware) lincheck litmus under the model checker, and
   - the batch lincheck spec,

   replacing the hand-maintained per-backend row lists the concurrent
   test file used to carry. A new backend gets all of this from its one
   registration line; nothing here names a backend. *)

module Q = Wfq_core.Queue_intf
module B = Wfq_core.Backends
module Ck = Wfq_sim.Check

let backends = B.all ()
let bid (module Bk : Q.BACKEND) = Bk.id

(* ------------------------------------------------------------------ *)
(* Registry sanity *)
(* ------------------------------------------------------------------ *)

let test_registry () =
  let ids = B.ids () in
  Alcotest.(check bool) "non-empty" true (ids <> []);
  let sorted = List.sort_uniq compare ids in
  Alcotest.(check int) "ids unique" (List.length ids) (List.length sorted);
  List.iter
    (fun id -> Alcotest.(check string) "find roundtrip" id (bid (B.find id)))
    ids;
  Alcotest.(check bool) "polylog registered" true (List.mem "polylog" ids);
  match B.find "no-such-backend" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "find of unknown id must raise"

(* ------------------------------------------------------------------ *)
(* Specs *)
(* ------------------------------------------------------------------ *)

(* A rejected spec raises [Invalid_argument] whose message names the
   part at fault. *)
let rejects spec part =
  match B.find spec with
  | _ -> Alcotest.failf "%S was accepted" spec
  | exception Invalid_argument msg ->
      let contains s sub =
        let n = String.length sub in
        let rec at i =
          i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
        in
        at 0
      in
      if not (contains msg part) then
        Alcotest.failf "%S: message %S does not name %S" spec msg part

let test_spec_errors () =
  rejects "nope" "\"nope\"";
  rejects "nope" "kp-opt12";
  rejects "kp-opt12?colour=red" "\"colour\"";
  rejects "polylog?mf=1" "\"mf\"";
  rejects "kp-opt12?help" "\"help\"";
  rejects "kp-opt12?help=some" "help=some";
  rejects "kp-opt12?help=chunk-0" "help=chunk-0";
  rejects "kp-opt12?tuned=yes" "tuned=yes";
  rejects "lf?pool=yes" "pool=yes";
  (* Pooling is an entry ([kp-opt12-pooled], [fps-pooled]), not a key. *)
  rejects "kp-opt12?pool=true" "\"pool\"";
  rejects "fps?pool=true" "\"pool\"";
  rejects "fps?mf=-1" "mf=-1";
  rejects "ring?mf=-1" "mf=-1";
  rejects "ring?capacity=0" "capacity=0";
  rejects "ring?capacity=-4" "capacity=-4";
  rejects "ring?capacity=four" "capacity=four";
  rejects "ring?mf=1&mf=2" "\"mf\"";
  rejects "fps?fault=no-claim" "\"fault\""

let test_spec_configures () =
  let (module R : Q.BACKEND) = B.find "ring?capacity=4096&mf=1" in
  Alcotest.(check string) "a configured id is its spec"
    "ring?capacity=4096&mf=1" R.id;
  Alcotest.(check (option int)) "capacity metadata" (Some 4096) R.capacity;
  Alcotest.(check string) "family kept" "ring" R.family;
  let (module K : Q.BACKEND) = B.find "kp-opt12" in
  Alcotest.(check bool) "no keys: the registered entry itself" true
    (K.id = "kp-opt12" && K.label = "opt WF (1+2)");
  List.iter
    (fun spec ->
      let i : int Q.instance = B.instantiate (B.find spec) ~num_threads:2 () in
      i.Q.enq_batch ~tid:0 [ 1; 2; 3 ];
      Alcotest.(check (list int))
        (spec ^ " fifo") [ 1; 2; 3 ] (i.Q.deq_batch ~tid:1 ~n:3))
    [ "kp-opt12?help=all&phase=scan"; "kp-opt12?help=chunk-2&tuned=true";
      "kp-opt12-pooled?phase=scan"; "fps?mf=0"; "fps-pooled?mf=8"; "lf?pool=true" ]

(* The ring's capacity is a typed answer, not an exception. *)
let test_spec_ring_full () =
  let i : int Q.instance =
    B.instantiate (B.find "ring?capacity=4") ~num_threads:1 ()
  in
  for v = 1 to 4 do
    Alcotest.(check bool)
      (Printf.sprintf "try_enq %d accepted" v)
      true (i.Q.try_enq ~tid:0 v)
  done;
  Alcotest.(check bool) "5th try_enq reports full" false (i.Q.try_enq ~tid:0 5);
  Alcotest.(check int) "a batch on a full ring accepts nothing" 0
    (i.Q.try_enq_batch ~tid:0 [ 6; 7 ]);
  Alcotest.(check (list int)) "contents intact" [ 1; 2; 3; 4 ] (i.Q.dump ())

(* A configured spec as the shard front-end's per-shard backend. *)
module Sh = Wfq_shard.Shard.Make (Wfq_primitives.Real_atomic)

let test_spec_as_shard () =
  let threads = 4 and per = 2_000 in
  let backend = Wfq_shard.Shard.Registered "fps-pooled?mf=8" in
  let q =
    Sh.create ~policy:Wfq_shard.Shard.Tid_affine ~backend ~shards:2
      ~num_threads:threads ()
  in
  Alcotest.(check bool) "backend probe" true (Sh.backend q = backend);
  let domains =
    List.init threads (fun tid ->
        Domain.spawn (fun () ->
            for seq = 1 to per do
              Sh.enqueue q ~tid ((tid * 1_000_000) + seq)
            done))
  in
  List.iter Domain.join domains;
  (* Sequential drain: conservation + per-producer order (each producer's
     elements share a shard under Tid_affine, so their order survives). *)
  let last_seq = Array.make threads 0 in
  let count = ref 0 in
  let rec drain () =
    match Sh.dequeue q ~tid:0 with
    | None -> ()
    | Some v ->
        incr count;
        let p = v / 1_000_000 and s = v mod 1_000_000 in
        if s <> last_seq.(p) + 1 then
          Alcotest.failf "producer %d out of order: %d after %d" p s last_seq.(p);
        last_seq.(p) <- s;
        drain ()
  in
  drain ();
  Alcotest.(check int) "all present" (threads * per) !count;
  Alcotest.(check (result unit string)) "shard invariants" (Ok ())
    (Sh.check_quiescent_invariants q);
  let bad = Wfq_shard.Shard.Registered "ring?capacity=0" in
  match Sh.create ~backend:bad ~num_threads:1 () with
  | (_ : int Sh.t) -> Alcotest.fail "a bad spec must be rejected"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "rejected before any shard, by Shard.create" true
        (String.starts_with ~prefix:"Shard.create: " msg)

(* ------------------------------------------------------------------ *)
(* Sequential suite (real atomics, one thread) *)
(* ------------------------------------------------------------------ *)

let test_seq_fifo bk () =
  let i : int Q.instance = B.instantiate bk ~num_threads:1 () in
  Alcotest.(check bool) "fresh empty" true (i.Q.empty ());
  Alcotest.(check (option int)) "deq on empty" None (i.Q.deq ~tid:0);
  List.iter (fun v -> i.Q.enq ~tid:0 v) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check int) "length" 5 (i.Q.size ());
  Alcotest.(check (list int)) "contents" [ 1; 2; 3; 4; 5 ] (i.Q.dump ());
  Alcotest.(check (option int)) "fifo" (Some 1) (i.Q.deq ~tid:0);
  Alcotest.(check bool) "try_enq accepts" true (i.Q.try_enq ~tid:0 6);
  Alcotest.(check (list int)) "mixed" [ 2; 3; 4; 5; 6 ] (i.Q.dump ());
  (match i.Q.check () with Ok () -> () | Error m -> Alcotest.fail m);
  for v = 2 to 6 do
    Alcotest.(check (option int)) "drain" (Some v) (i.Q.deq ~tid:0)
  done;
  Alcotest.(check (option int)) "empty again" None (i.Q.deq ~tid:0)

let test_seq_empty_runs bk () =
  let i : int Q.instance = B.instantiate bk ~num_threads:1 () in
  for _ = 1 to 10 do
    Alcotest.(check (option int)) "still empty" None (i.Q.deq ~tid:0)
  done;
  i.Q.enq ~tid:0 42;
  Alcotest.(check (option int)) "revived" (Some 42) (i.Q.deq ~tid:0)

let test_seq_batches bk () =
  let i : int Q.instance = B.instantiate bk ~num_threads:1 () in
  i.Q.enq_batch ~tid:0 [ 1; 2; 3 ];
  i.Q.enq_batch ~tid:0 [];
  Alcotest.(check (list int)) "batch in" [ 1; 2; 3 ] (i.Q.dump ());
  Alcotest.(check (list int)) "batch out" [ 1; 2 ] (i.Q.deq_batch ~tid:0 ~n:2);
  Alcotest.(check (list int)) "short out" [ 3 ] (i.Q.deq_batch ~tid:0 ~n:5);
  match i.Q.check () with Ok () -> () | Error m -> Alcotest.fail m

let test_seq_differential bk () =
  let i : int Q.instance = B.instantiate bk ~num_threads:1 () in
  let model = Queue.create () in
  let rng = Wfq_primitives.Rng.create ~seed:23 in
  for v = 1 to 800 do
    if Wfq_primitives.Rng.bool rng then begin
      (* [try_enq] keeps bounded backends honest if a configuration
         ever registers a capacity smaller than this run. *)
      if i.Q.try_enq ~tid:0 v then Queue.push v model
    end
    else if i.Q.deq ~tid:0 <> Queue.take_opt model then
      Alcotest.failf "diverged from model at op %d" v
  done;
  Alcotest.(check (list int))
    "final contents"
    (List.of_seq (Queue.to_seq model))
    (i.Q.dump ())

(* ------------------------------------------------------------------ *)
(* Allocation pins *)
(* ------------------------------------------------------------------ *)

(* Minor-heap words per operation of a solo enqueue+dequeue loop on one
   domain, after a warm-up that lets pooled backends carve their first
   segments. Words come from [Gc.minor_words], so the figure does not
   depend on host speed; each is pinned as a ceiling. The unpooled
   linked queues allocate each node and descriptor as one plain record:
   a self-referential [let rec] record costs OCaml 5.1 a dummy block
   plus a copy, which put kp-opt12 at 67 words/op, the Help_all/
   Phase_scan build at 72, fps at 11 and lf at 8. *)
let alloc_pins =
  [
    ("kp-opt12", 36.0);
    ("kp-opt12?help=all&phase=scan", 41.0);
    ("fps", 7.5);
    ("lf", 5.5);
    ("kp-opt12-pooled", 3.6);
    ("fps-pooled", 2.1);
    ("ring", 3.5);
  ]

let solo_words_per_op spec =
  let i : int Q.instance = B.instantiate (B.find spec) ~num_threads:1 () in
  let run n =
    for v = 1 to n do
      i.Q.enq ~tid:0 v;
      ignore (Sys.opaque_identity (i.Q.deq ~tid:0))
    done
  in
  run 1_000;
  let pairs = 20_000 in
  let w0 = Gc.minor_words () in
  run pairs;
  (Gc.minor_words () -. w0) /. float_of_int (2 * pairs)

let test_alloc_pin (spec, ceiling) () =
  let w = solo_words_per_op spec in
  (* The slack covers the two boxed floats of the measurement itself
     and pool bookkeeping rounding, nowhere near one word per op. *)
  if w > ceiling +. 0.05 then
    Alcotest.failf "%s allocates %.3f words/op, pinned at %.1f" spec w ceiling

(* ------------------------------------------------------------------ *)
(* Real domains: pairs stress *)
(* ------------------------------------------------------------------ *)

let test_domains bk () =
  let threads = 4 and iters = 1_500 in
  let i : int Q.instance = B.instantiate bk ~num_threads:threads () in
  let empties = Atomic.make 0 in
  let ds =
    List.init threads (fun tid ->
        Domain.spawn (fun () ->
            for n = 1 to iters do
              i.Q.enq ~tid ((tid * iters) + n);
              match i.Q.deq ~tid with
              | Some _ -> ()
              | None -> Atomic.incr empties
            done))
  in
  List.iter Domain.join ds;
  Alcotest.(check int) "no empties in pairs" 0 (Atomic.get empties);
  Alcotest.(check int) "drained" 0 (i.Q.size ());
  match i.Q.check () with Ok () -> () | Error m -> Alcotest.fail m

(* ------------------------------------------------------------------ *)
(* Model-checked lincheck litmuses (sim-safe backends) *)
(* ------------------------------------------------------------------ *)

let run_battery_litmus (module Bk : Q.BACKEND) scripts =
  Ck.run ~mode:Ck.Dpor ~max_schedules:300_000 ~queue:(Ck.of_spec Bk.id)
    ~scripts ()

let expect_clean name (r : Ck.report) =
  (match r.Ck.failure with
  | None -> ()
  | Some f -> Alcotest.failf "%s: %a" name Ck.pp_failure f);
  Alcotest.(check bool) (name ^ ": exhausted") true r.Ck.exhausted

let test_lincheck (module Bk : Q.BACKEND) () =
  expect_clean Bk.id
    (run_battery_litmus (module Bk) [ [ `Enq 1 ]; [ `Deq ] ])

let test_lincheck_batch (module Bk : Q.BACKEND) () =
  expect_clean (Bk.id ^ " batch")
    (run_battery_litmus (module Bk)
       [ [ `Enq_batch [ 1; 2 ] ]; [ `Deq_batch 2 ] ])

(* ------------------------------------------------------------------ *)

let per_backend mk label =
  List.map
    (fun bk -> Alcotest.test_case (bid bk ^ " " ^ label) `Quick (mk bk))
    backends

let sim_backends =
  List.filter (fun (module Bk : Q.BACKEND) -> Bk.sim_safe) backends

let per_sim_backend ?(only = fun _ -> true) mk label =
  List.map
    (fun bk -> Alcotest.test_case (bid bk ^ " " ^ label) `Quick (mk bk))
    (List.filter only sim_backends)

(* A baseline's batches loop its single-element operations, so its
   batch spec is a two-operations-per-fiber scenario; for kp-hp that is
   past any DPOR cap. The enq|deq row covers the baselines. *)
let native_batches (module Bk : Q.BACKEND) = Bk.family <> "baseline"

let () =
  Alcotest.run "backend-battery"
    [
      ("registry", [ Alcotest.test_case "sanity" `Quick test_registry ]);
      ( "alloc pins",
        List.map
          (fun ((spec, ceiling) as pin) ->
            Alcotest.test_case
              (Printf.sprintf "%s <= %.1f words/op" spec ceiling)
              `Quick (test_alloc_pin pin))
          alloc_pins );
      ( "specs",
        [
          Alcotest.test_case "bad specs name the offending part" `Quick
            test_spec_errors;
          Alcotest.test_case "keys configure the entry" `Quick
            test_spec_configures;
          Alcotest.test_case "ring?capacity=4 reports full on the 5th" `Quick
            test_spec_ring_full;
          Alcotest.test_case "fps-pooled?mf=8 as a shard backend" `Quick
            test_spec_as_shard;
        ] );
      ( "sequential",
        per_backend test_seq_fifo "fifo"
        @ per_backend test_seq_empty_runs "empty runs"
        @ per_backend test_seq_batches "batches"
        @ per_backend test_seq_differential "differential" );
      ("domains", per_backend test_domains "pairs");
      ( "lincheck",
        per_sim_backend test_lincheck "enq|deq"
        @ per_sim_backend ~only:native_batches test_lincheck_batch "batch spec"
      );
    ]
