(** The in-tree backend configurations, registered once each
    (docs/BACKENDS.md). This module is the single place a new backend
    touches outside its own implementation: wrap the configured
    algorithm as a {!Queue_intf.BACKEND} and register it — [Wfq_shard],
    [Sched.Rq_of], the conformance battery and [wfq_bench] all iterate
    the registry.

    Each entry also declares the spec keys that reconfigure it
    ([find "kp-opt12?help=all&phase=scan"] is the paper's base WF). A
    key exists only because a caller in the tree sets it.

    Consumers must go through this module's re-exports ([all], [find],
    [ids]) rather than [Backend_registry] directly: touching [Backends]
    is what forces the registrations to run. *)

module type ATOMIC = Wfq_primitives.Atomic_intf.ATOMIC

type t = Backend_registry.t

(* --- instances ----------------------------------------------------- *)

(* The closure-record view of one live queue (see
   {!Queue_intf.instance}): how heterogeneous clients hold any backend
   without a per-backend variant. The functor is applied once per
   partial application [instantiate_with a b], so a client that builds
   many queues of one backend allocates the module once, not per
   queue. *)

let instantiate_with (module At : ATOMIC) (module B : Queue_intf.BACKEND) =
  let module Q = B.Make (At) in
  fun (type v) ?obsv ~num_threads () : v Queue_intf.instance ->
  let q : v Q.t = Q.create ?obsv ~num_threads () in
  {
    Queue_intf.i_name = Q.name;
    enq = (fun ~tid v -> Q.enqueue q ~tid v);
    try_enq = (fun ~tid v -> Q.try_enqueue q ~tid v);
    deq = (fun ~tid -> Q.dequeue q ~tid);
    enq_batch = (fun ~tid vs -> Q.enqueue_batch q ~tid vs);
    try_enq_batch = (fun ~tid vs -> Q.try_enqueue_batch q ~tid vs);
    deq_batch = (fun ~tid ~n -> Q.dequeue_batch q ~tid ~n);
    size = (fun () -> Q.length q);
    empty = (fun () -> Q.is_empty q);
    dump = (fun () -> Q.to_list q);
    check = (fun () -> Q.check_quiescent_invariants q);
    metrics = (fun registry ~prefix -> Q.register_metrics q registry ~prefix);
  }

let instantiate b = instantiate_with (module Wfq_primitives.Real_atomic) b

(* --- spec keys ------------------------------------------------------ *)

(* A key: its name, what a value must look like, and how a value
   updates the entry's configuration ([None]: malformed value). *)
type 'c key = string * string * (string -> 'c -> 'c option)

let bool_key name set : _ key =
  ( name,
    "true or false",
    fun v c -> Option.map (fun b -> set b c) (bool_of_string_opt v) )

let int_key name ~min set : _ key =
  ( name,
    Printf.sprintf "an integer >= %d" min,
    fun v c ->
      match int_of_string_opt v with
      | Some n when n >= min -> Some (set n c)
      | _ -> None )

(* A seeded fault, by name: [Backend_registry.find] accepts this key
   only from the model checker ([~sim:true]). *)
let fault_key faults set : _ key =
  ( "fault",
    String.concat " or " (List.map fst faults),
    fun v c -> Option.map (fun f -> set (Some f) c) (List.assoc_opt v faults) )

(* Register an entry whose configuration ['c] the [keys] override;
   [build ~id ~label cfg] wraps one configuration as a backend. A
   configured backend's id is its spec and its label names the
   overrides, so two configurations never share a legend entry by
   accident. *)
let register ~id ~label ~(keys : 'c key list) ~build (default : 'c) =
  Backend_registry.register_with
    ~keys:(List.map (fun (k, _, _) -> k) keys)
    ~configure:(fun ~spec kvs ->
      let cfg =
        List.fold_left
          (fun c (k, v) ->
            let _, expected, set = List.find (fun (k', _, _) -> k' = k) keys in
            match set v c with
            | Some c -> c
            | None -> Backend_registry.fail spec "%s=%s: expected %s" k v expected)
          default kvs
      in
      let n = String.length id + 1 in
      let query = String.sub spec n (String.length spec - n) in
      build ~id:spec ~label:(Printf.sprintf "%s (%s)" label query) cfg)
    (build ~id ~label default)

(* Bounded-insert shims for unbounded queues: never full. *)
module Unbounded (Q : sig
  type 'a t

  val enqueue : 'a t -> tid:int -> 'a -> unit
  val enqueue_batch : 'a t -> tid:int -> 'a list -> unit
end) =
struct
  let try_enqueue t ~tid v =
    Q.enqueue t ~tid v;
    true

  let try_enqueue_batch t ~tid vs =
    Q.enqueue_batch t ~tid vs;
    List.length vs
end

(* --- the KP family ------------------------------------------------- *)

(* Both KP entries default to the paper's fastest slow-path
   configuration, opt (1+2): cyclic single-thread helping, atomic phase
   counter. The keys select the rest of Figs. 7-9 and the §3.3
   extensions: [help=all|cyclic|chunk-K], [phase=scan|counter],
   [tuned] (descriptor reset + pre-CAS validation). Pooling is the
   [kp-opt12-pooled] entry, not a key: one name per configuration. *)

type kp = {
  help : Kp_queue.help_policy;
  phase : Kp_queue.phase_policy;
  kp_pool : bool;
  tuned : bool;
}

let kp_keys : kp key list =
  [
    ( "help",
      "all, cyclic or chunk-K (K >= 1)",
      fun v c ->
        match v with
        | "all" -> Some { c with help = Kp_queue.Help_all }
        | "cyclic" -> Some { c with help = Help_one_cyclic }
        | _ -> (
            match String.index_opt v '-' with
            | Some 5 when String.sub v 0 5 = "chunk" -> (
                match int_of_string_opt (String.sub v 6 (String.length v - 6)) with
                | Some k when k >= 1 -> Some { c with help = Help_chunk k }
                | _ -> None)
            | _ -> None) );
    ( "phase",
      "scan or counter",
      fun v c ->
        match v with
        | "scan" -> Some { c with phase = Kp_queue.Phase_scan }
        | "counter" -> Some { c with phase = Phase_counter }
        | _ -> None );
    bool_key "tuned" (fun b c -> { c with tuned = b });
  ]

let kp ~id ~label cfg : t =
  (module struct
    let id = id
    let label = label
    let family = "kp"
    let capacity = None
    let sim_safe = true

    module Make (A : ATOMIC) = struct
      module Q = Kp_queue.Make (A)
      include Q
      include Unbounded (Q)

      let create ?obsv ~num_threads () =
        let handle =
          Option.map
            (fun (r, p) -> Kp_queue.metrics r ~prefix:p ~slots:num_threads)
            obsv
        in
        let q =
          Q.create_with ?obsv:handle
            ?tuning:
              (if cfg.tuned then
                 Some { Kp_queue.gc_friendly = true; validate_before_cas = true }
               else None)
            ~pool:cfg.kp_pool
            ~help:cfg.help ~phase:cfg.phase ~num_threads ()
        in
        Option.iter (fun (r, p) -> Q.register_metrics q r ~prefix:p) obsv;
        q
    end
  end)

let opt12 =
  {
    help = Kp_queue.Help_one_cyclic;
    phase = Phase_counter;
    kp_pool = false;
    tuned = false;
  }

(* --- the fast-path/slow-path family -------------------------------- *)

(* Slow path in opt (1+2), as for KP. Keys: [mf] (fast-path failure
   budget) and the seeded [fault]s; pooling is the [fps-pooled] entry. *)

type fps = {
  mf : int;
  fps_pool : bool;
  fps_fault : Kp_queue_fps.fault option;
}

let fps_keys : fps key list =
  [
    int_key "mf" ~min:0 (fun n c -> { c with mf = n });
    fault_key
      [
        ("stale-helper", Kp_queue_fps.Stale_helper_caller_phase);
        ("no-claim", Fast_deq_no_claim);
        ("batch-partial", Batch_partial_publish);
      ]
      (fun f c -> { c with fps_fault = f });
  ]

let fps ~id ~label cfg : t =
  (module struct
    let id = id
    let label = label
    let family = "fps"
    let capacity = None
    let sim_safe = true

    module Make (A : ATOMIC) = struct
      module Q = Kp_queue_fps.Make (A)
      include Q
      include Unbounded (Q)

      let create ?obsv ~num_threads () =
        let handle =
          Option.map
            (fun (r, p) -> Kp_queue_fps.metrics r ~prefix:p ~slots:num_threads)
            obsv
        in
        let q =
          Q.create_with ?obsv:handle ?fault:cfg.fps_fault
            ~pool:cfg.fps_pool
            ~max_failures:cfg.mf ~help:Kp_queue_fps.Help_one_cyclic
            ~phase:Kp_queue_fps.Phase_counter ~num_threads ()
        in
        Option.iter (fun (r, p) -> Q.register_metrics q r ~prefix:p) obsv;
        q
    end
  end)

(* --- the bounded ring ---------------------------------------------- *)

(* Keys: [capacity] (slots), [mf] (fast-path budget) and the seeded
   [fault]; unset keys keep [Ring_queue]'s own defaults. *)

type ring = {
  ring_capacity : int option;
  ring_mf : int option;
  ring_fault : Ring_queue.fault option;
}

let ring_keys : ring key list =
  [
    int_key "capacity" ~min:1 (fun n c -> { c with ring_capacity = Some n });
    int_key "mf" ~min:0 (fun n c -> { c with ring_mf = Some n });
    fault_key
      [ ("rollback-skipped", Ring_queue.Rollback_skipped) ]
      (fun f c -> { c with ring_fault = f });
  ]

let ring ~id ~label cfg : t =
  (module struct
    let id = id
    let label = label
    let family = "ring"

    let capacity =
      Some (Option.value cfg.ring_capacity ~default:Ring_queue.default_capacity)

    let sim_safe = true

    module Make (A : ATOMIC) = struct
      module Q = Ring_queue.Make (A)
      include Q

      let create ?obsv ~num_threads () =
        let handle =
          Option.map
            (fun (r, p) -> Ring_queue.metrics r ~prefix:p ~slots:num_threads)
            obsv
        in
        let q =
          Q.create_with ?capacity:cfg.ring_capacity ?max_failures:cfg.ring_mf
            ?fault:cfg.ring_fault ?obsv:handle ~num_threads ()
        in
        Option.iter (fun (r, p) -> Q.register_metrics q r ~prefix:p) obsv;
        q
    end
  end)

(* --- the polylog tournament tree ----------------------------------- *)

(* Key: the seeded [fault]. *)

let polylog_keys : Polylog_queue.fault option key list =
  [ fault_key [ ("no-double-refresh", Polylog_queue.No_double_refresh) ] Fun.const ]

let polylog ~id ~label fault : t =
  (module struct
    let id = id
    let label = label
    let family = "polylog"
    let capacity = None
    let sim_safe = true

    module Make (A : ATOMIC) = struct
      module Q = Polylog_queue.Make (A)
      include Unbounded (Q)
      include Q

      let create ?obsv ~num_threads () =
        let handle =
          Option.map
            (fun (r, p) -> Polylog_queue.metrics r ~prefix:p ~slots:num_threads)
            obsv
        in
        let q = Q.create_with ?fault ?obsv:handle ~num_threads () in
        Option.iter (fun (r, p) -> Q.register_metrics q r ~prefix:p) obsv;
        q
    end
  end)

(* --- the paper's baselines ----------------------------------------- *)

(* One adaptor for every comparison queue: batches loop the
   single-element operations, [try_enqueue] always accepts, and the
   metrics hookup is the [.depth] gauge alone. The structural audit is
   the queue's own where it has one ([Ms_queue], [Lms_queue]); the
   others go through [Unaudited]. [lf] and [kp-hp] run under the
   simulator; the blocking queues hold [Mutex]es, so the DPOR battery
   skips them ([sim_safe = false]) and the real-domain suites and the
   benches run them like any other entry. *)

module type BASELINE = sig
  module Make (A : ATOMIC) : Queue_intf.CHECKABLE_QUEUE
end

module Unaudited (F : sig
  module Make (A : ATOMIC) : Queue_intf.QUEUE
end) =
struct
  module Make (A : ATOMIC) = struct
    include F.Make (A)

    let check_quiescent_invariants _ = Ok ()
  end
end

let baseline ?(sim_safe = false) (module F : BASELINE) ~id ~label : t =
  (module struct
    let id = id
    let label = label
    let family = "baseline"
    let capacity = None
    let sim_safe = sim_safe

    module Make (A : ATOMIC) = struct
      module Q = F.Make (A)
      include Q

      let enqueue_batch t ~tid vs = List.iter (fun v -> Q.enqueue t ~tid v) vs

      include Unbounded (struct
        type nonrec 'a t = 'a t

        let enqueue = enqueue
        let enqueue_batch = enqueue_batch
      end)

      let dequeue_batch t ~tid ~n =
        if n < 0 then invalid_arg (Q.name ^ ".dequeue_batch: n");
        let rec go k acc =
          if k = 0 then List.rev acc
          else
            match Q.dequeue t ~tid with
            | Some v -> go (k - 1) (v :: acc)
            | None -> List.rev acc
        in
        go n []

      let register_metrics t registry ~prefix =
        Wfq_obsv.Metrics.gauge registry ~name:(prefix ^ ".depth") (fun () ->
            Q.length t)

      let create ?obsv ~num_threads () =
        let q = Q.create ~num_threads () in
        Option.iter (fun (r, prefix) -> register_metrics q r ~prefix) obsv;
        q
    end
  end)

(* The baselines whose constructors do not already fit [QUEUE]. *)

module Lf_pooled = struct
  module Make (A : ATOMIC) = struct
    include Ms_queue.Make (A)

    let create ~num_threads () = create_pooled ~num_threads ()
  end
end

(* [kp-hp]'s keys: the hazard-pointer scan trigger and the per-thread
   recycling pool's capacity (small values force recycling pressure). *)
type hp = { scan_threshold : int option; pool_capacity : int option }

let hp_keys : hp key list =
  [
    int_key "scan-threshold" ~min:1 (fun n c -> { c with scan_threshold = Some n });
    int_key "pool-capacity" ~min:1 (fun n c -> { c with pool_capacity = Some n });
  ]

let kp_hp cfg : (module BASELINE) =
  (module Unaudited (struct
    module Make (A : ATOMIC) = struct
      include Kp_queue_hp.Make (A)

      let create ~num_threads () =
        create ?scan_threshold:cfg.scan_threshold
          ?pool_capacity:cfg.pool_capacity ~num_threads ()
    end
  end))

module Fc = Unaudited (struct
  module Make = Fc_queue.Make
end)

module Two_lock = Unaudited (struct
  module Make (_ : ATOMIC) = Two_lock_queue
end)

module Mutex_q = Unaudited (struct
  module Make (_ : ATOMIC) = Mutex_queue
end)

(* --- registration (one line per entry) ----------------------------- *)

let () =
  let default_fps =
    { mf = Kp_queue_fps.default_max_failures; fps_pool = false; fps_fault = None }
  in
  let no_ring = { ring_capacity = None; ring_mf = None; ring_fault = None } in
  register ~id:"kp-opt12" ~label:"opt WF (1+2)" ~keys:kp_keys ~build:kp opt12;
  register ~id:"kp-opt12-pooled" ~label:"opt WF (1+2) pooled" ~keys:kp_keys
    ~build:kp { opt12 with kp_pool = true };
  register ~id:"fps" ~label:"WF fps" ~keys:fps_keys ~build:fps default_fps;
  register ~id:"fps-pooled" ~label:"WF fps pooled" ~keys:fps_keys ~build:fps
    { default_fps with fps_pool = true };
  register ~id:"ring" ~label:"WF ring" ~keys:ring_keys ~build:ring no_ring;
  register ~id:"polylog" ~label:"WF polylog" ~keys:polylog_keys ~build:polylog
    None;
  register ~id:"lf" ~label:"LF"
    ~keys:[ bool_key "pool" (fun b _ -> b) ]
    ~build:(fun ~id ~label pool ->
      baseline ~sim_safe:true
        (if pool then (module Lf_pooled) else (module Ms_queue))
        ~id ~label)
    false;
  let register_baselines =
    List.iter (fun (family, id, label) ->
        Backend_registry.register (baseline family ~id ~label))
  in
  register_baselines [ ((module Lms_queue), "lms", "LF optimistic") ];
  register ~id:"kp-hp" ~label:"WF hazard-ptr" ~keys:hp_keys
    ~build:(fun ~id ~label cfg -> baseline ~sim_safe:true (kp_hp cfg) ~id ~label)
    { scan_threshold = None; pool_capacity = None };
  register_baselines
    [
      ((module Fc), "flat-combining", "flat-combining");
      ((module Two_lock), "two-lock", "two-lock");
      ((module Mutex_q), "mutex", "mutex");
    ]

(* Re-exports: the registry view every consumer should use. *)
let all = Backend_registry.all
let find = Backend_registry.find
let ids = Backend_registry.ids

let label (module B : Queue_intf.BACKEND) = B.label
let family (module B : Queue_intf.BACKEND) = B.family
