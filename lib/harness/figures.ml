(** The lines of every figure in the paper's evaluation section (§4)
    and of the extensions, as queues under test; {!Suite} turns each
    list into a benchmark row. *)

(* --- the series: one (label, spec) per line of a figure ----------- *)

(* Every figure line is a registry spec ({!Workload.spec}); the label
   is the paper's legend where it differs from the entry's own. Only
   the shard front-end and the int-only universal construction are
   built by hand. *)

let spec = Workload.spec
let lf = spec "lf"
let wf_base = spec ~label:"base WF" "kp-opt12?help=all&phase=scan"
let wf_opt1 = spec ~label:"opt WF (1)" "kp-opt12?phase=scan"
let wf_opt2 = spec ~label:"opt WF (2)" "kp-opt12?help=all"
let wf_opt12 = spec "kp-opt12"
let wf_pooled = spec "kp-opt12-pooled"
let wf_fps = spec "fps"
let wf_fps_pooled = spec "fps-pooled"

(* 8192 slots: far above the pairs workload's peak depth ([threads]). *)
let ring_8192 = "ring?capacity=8192"

module RA = Wfq_primitives.Real_atomic
module Sh = Wfq_shard.Shard.Make (RA)
module Uq = Wfq_universal.Universal.Queue (RA)

let shard label ~policy k : Workload.queue =
  {
    label;
    make =
      (fun ~num_threads ->
        Sh.instance (Sh.create ~policy ~shards:k ~num_threads ()));
  }

(* Herlihy's universal construction is int-only, so it is no registry
   entry; [Workload.per_item] supplies its batch operations. *)
let universal : Workload.queue =
  let no_batch ~tid:_ _ = invalid_arg "universal: batches come from per_item" in
  {
    label = "WF universal";
    make =
      (fun ~num_threads ->
        let q = Uq.create ~num_threads () in
        Workload.per_item
          {
            Wfq_core.Queue_intf.i_name = Uq.name;
            enq = Uq.enqueue q;
            try_enq =
              (fun ~tid v ->
                Uq.enqueue q ~tid v;
                true);
            deq = Uq.dequeue q;
            enq_batch = no_batch;
            try_enq_batch = no_batch;
            deq_batch = (fun ~tid ~n:_ -> no_batch ~tid ());
            size = (fun () -> Uq.length q);
            empty = (fun () -> Uq.is_empty q);
            dump = (fun () -> Uq.to_list q);
            check = (fun () -> Ok ());
            metrics = (fun _ ~prefix:_ -> ());
          });
  }

let fig7_series = [ lf; wf_base; wf_opt12 ]
let fig9_series = [ wf_base; wf_opt12; wf_opt1; wf_opt2 ]

(* Every registered entry, the pooled LF queue, the paper's partial
   optimizations and the universal construction. The ring runs at 8192
   slots: the registry's 1024 are fewer than the 50%-enqueues
   workload's prefill plus drift. *)
let lf_pooled = spec ~label:"LF pooled" "lf?pool=true"

let extended_series =
  [ wf_base; wf_opt1; wf_opt2 ]
  @ List.concat_map
      (function
        | "ring" -> [ spec ~label:"WF ring" ring_8192 ]
        | "lf" -> [ lf; lf_pooled ]
        | id -> [ spec id ])
      (Wfq_core.Backends.ids ())
  @ [ universal ]

(* The best unsharded variant against the front-end at growing shard
   counts (shard-1 measures the strict mode's overhead, which should be
   nil). The headline rows use the tid-affine policy: on the pairs
   workload a thread's dequeue starts at the shard its enqueue just
   fed; the round-robin ticket policy is kept as a labelled variant. *)
let shard_series =
  wf_opt12
  :: List.map
       (fun k ->
         shard (Printf.sprintf "WF shard-%d" k) ~policy:Wfq_shard.Shard.Tid_affine k)
       [ 1; 2; 4; 8 ]
  @ [ shard "WF shard-8 (rr)" ~policy:Wfq_shard.Shard.Round_robin 8 ]

(* The acceptance baselines (raw LF, base WF, best unsharded WF), the
   fps queue unpooled and pooled, and the fast-path budget sweep. *)
let fps_series =
  [ lf; wf_base; wf_opt12; wf_fps; wf_fps_pooled ]
  @ List.map
      (fun k ->
        spec ~label:(Printf.sprintf "WF fps mf=%d" k) (Printf.sprintf "fps?mf=%d" k))
      [ 1; 8; 64; 1024 ]

(* Each family's headline member next to its pooled counterpart, so
   the words/op delta isolates what segment-pool recycling saves. *)
let alloc_series =
  [
    lf; lf_pooled; wf_opt12; wf_pooled; wf_fps; wf_fps_pooled;
  ]

(* The ring against the linked queues' allocation floor (the pooled
   members) and the throughput baseline. *)
let ring_series =
  [ wf_opt12; wf_pooled; wf_fps_pooled; spec ~label:"WF ring" ring_8192 ]

(* The paper's fastest O(p) queue, the lowest-allocation O(p) variant,
   and the O(log^2 p) tree. *)
let polylog_series = [ wf_opt12; wf_fps_pooled; spec "polylog" ]

(* The per-item fps baseline against the batch-native backends. Both
   fps rows run the pooled configuration (the family's headline), so
   the ratio isolates what batching amortizes — the per-element CAS
   protocol — rather than the allocator. *)
let batch_series =
  [
    {
      Workload.label = "WF fps per-item";
      make =
        (fun ~num_threads -> Workload.per_item (wf_fps_pooled.make ~num_threads));
    };
    spec ~label:"WF fps batch" "fps-pooled";
    spec ~label:"opt WF (1+2) batch" "kp-opt12";
    spec ~label:"WF ring batch" ring_8192;
    shard "WF shard-4 (rr) batch" ~policy:Wfq_shard.Shard.Round_robin 4;
  ]

(* Helping-chunk size sweep plus the tuning enhancements. *)
let ablation_series =
  [
    wf_opt12;
    spec ~label:"WF chunk-2" "kp-opt12?help=chunk-2";
    spec ~label:"WF chunk-4" "kp-opt12?help=chunk-4";
    spec ~label:"WF tuned" "kp-opt12?tuned=true";
  ]

(** Figure 10: live-space overhead of the wait-free queues relative to
    the lock-free one, as a function of the initial queue size. *)
let fig10 ~sizes =
  let ratio impl size =
    let wf = Space.footprint impl ~size in
    let lf = Space.footprint lf ~size in
    float_of_int wf /. float_of_int lf
  in
  List.map
    (fun (label, impl) ->
      {
        Report.label;
        points = List.map (fun s -> (float_of_int s, ratio impl s)) sizes;
      })
    [ ("base WF / LF", wf_base); ("opt WF (1+2) / LF", wf_opt12) ]
