(* Effect-based fiber scheduler over wait-free run-queues.

   N workers (OCaml domains in production, or plain callers of [step]
   under the deterministic simulator) each own two queues of tasks: a
   private FIFO that only the owner touches, and one MPMC run-queue
   (the [shared] queue) that other workers steal from. A task is a
   slice of a fiber: either the start of a fresh fiber or a captured
   continuation to resume. Fibers interact with the scheduler through
   effects ([Yield], [Spawn], [Await] and the internal [Complete]); the
   worker executing a slice installs a {e shallow} handler for exactly
   that slice.

   Why two queues: every spawn, yield and wakeup is pushed by the
   worker that performs it, and most are popped by that same worker.
   Those pushes and pops need no concurrency at all, so they go to a
   plain array ring. Only work another worker can see goes through the
   wait-free queue: [submit]ted fibers, and tasks the owner publishes
   when a thief asks for them (the hunger protocol, at [publish]).

   Why shallow handlers: a fiber suspended on this scheduler is resumed
   by {e whichever} worker takes it — not necessarily the worker that
   started it. A deep handler is captured inside the continuation, so
   the resuming worker would run the fiber under the {e original}
   worker's handler, and any thread identity closed over in it would be
   stale: two domains would perform queue operations under the same
   [tid], breaking the Kogan-Petrank per-thread state discipline. With
   shallow handlers every resumption installs the handler of the
   executing worker, closing over {e its} tid, so the tid used for
   every run-queue operation is always the operating domain's own.
   Each worker's handler is built once, in [create]. (This also keeps
   the core simulator-runnable: effects the handler does not recognize
   — the simulator's yield-per-access effects — are forwarded to the
   outer handler by returning [None].)

   Progress and termination: [outstanding] counts fibers spawned but
   not yet completed. It is incremented {e before} the fresh task is
   queued and decremented only by [Complete], so [outstanding = 0]
   implies no task exists in any queue and none is mid-execution —
   the condition under which [run]'s workers exit. A fiber suspended
   on [Await] sits in no queue, but its own spawn count keeps
   [outstanding] positive until it completes.

   The await/complete hand-off is the one genuinely racy protocol the
   scheduler adds on top of the queues (stealing is just a dequeue by
   another tid, already covered by the queue's own linearizability):
   [Await] publishes the waiter with a CAS on the promise cell, and
   [Complete] claims the whole waiter list with an exchange. If the
   exchange lands first, the waiter's CAS fails (the cell changed) and
   the awaiter re-reads the completed value — no lost wakeup; if the
   CAS lands first, the exchange sees the waiter and requeues it.
   Both cells live on the [A] functor plane, so DPOR explores exactly
   these interleavings (test_sched.ml litmus). *)

module C = Wfq_obsv.Counter
module H = Wfq_obsv.Histogram
module Steal_order = Wfq_shard.Steal_order

module type RUN_QUEUE = sig
  include Wfq_core.Queue_intf.RUN_QUEUE

  val try_enqueue_batch : 'a t -> tid:int -> 'a list -> int
end

(* ------------------------------------------------------------------ *)
(* Owner-private FIFO                                                 *)
(* ------------------------------------------------------------------ *)

(* A growable power-of-two array ring with no synchronisation: one
   worker pushes and pops it. A flat array, not [Stdlib.Queue]: the
   linked cells of the latter cost a third of the array's throughput
   on the fan-out benchmark (EXPERIMENTS.md). Popped slots are reset
   to [nil] so the ring does not keep finished continuations alive. *)
module Fifo = struct
  type 'a t = {
    mutable buf : 'a array;
    mutable head : int;
    mutable len : int;
    nil : 'a;
  }

  let create nil = { buf = Array.make 16 nil; head = 0; len = 0; nil }
  let length f = f.len

  let grow f =
    let old = f.buf and cap = Array.length f.buf in
    let buf = Array.make (2 * cap) f.nil in
    for i = 0 to f.len - 1 do
      buf.(i) <- old.((f.head + i) land (cap - 1))
    done;
    f.buf <- buf;
    f.head <- 0

  let push f x =
    if f.len = Array.length f.buf then grow f;
    f.buf.((f.head + f.len) land (Array.length f.buf - 1)) <- x;
    f.len <- f.len + 1

  (* The caller checks [length f > 0]. *)
  let pop f =
    let x = f.buf.(f.head) in
    f.buf.(f.head) <- f.nil;
    f.head <- (f.head + 1) land (Array.length f.buf - 1);
    f.len <- f.len - 1;
    x

  (* The oldest [n <= length f] elements, oldest first, left in place. *)
  let peek f n =
    let mask = Array.length f.buf - 1 in
    List.init n (fun i -> f.buf.((f.head + i) land mask))

  let drop f n =
    for _ = 1 to n do
      ignore (pop f)
    done
end

(* ------------------------------------------------------------------ *)
(* Observability handle                                               *)
(* ------------------------------------------------------------------ *)

(* Same split as Kp_queue/Kp_queue_fps: always-on Counter cells live in
   [t] and are attached by [register_metrics]; the [?obsv] handle
   carries the two histograms whose sampling is opt-in. All writes are
   per-tid single-writer plain cells, so an instrumented scheduler
   performs no extra shared-cell traffic and its DPOR traces are
   identical to an uninstrumented one's. *)
type metrics = { m_depth : H.t; m_latency : H.t }

let metrics registry ~prefix ~slots =
  {
    m_depth =
      Wfq_obsv.Metrics.histogram registry ~name:(prefix ^ ".runq_depth")
        ~slots;
    m_latency =
      Wfq_obsv.Metrics.histogram registry
        ~name:(prefix ^ ".fiber_latency_ns") ~slots;
  }

(* ------------------------------------------------------------------ *)
(* The scheduler functor                                              *)
(* ------------------------------------------------------------------ *)

module type S = sig
  type t
  type 'a promise

  val name : string

  val create :
    ?obsv:metrics -> ?clock:(unit -> int) -> num_workers:int -> unit -> t

  val num_workers : t -> int

  (* Fiber-context operations (require a worker's handler). *)
  val spawn : (unit -> 'a) -> 'a promise
  val spawn_many : (unit -> 'a) list -> 'a promise list
  val yield : unit -> unit
  val await : 'a promise -> 'a

  (* External operations. *)
  val submit : t -> tid:int -> (unit -> 'a) -> 'a promise
  val submit_batch : t -> tid:int -> (unit -> 'a) list -> 'a promise list
  val result : 'a promise -> ('a, exn) result option
  val run : t -> (unit -> 'a) -> 'a

  (* Deterministic core (single caller per tid at a time). *)
  val step : t -> tid:int -> bool
  val drain : t -> tid:int -> int

  (* Probes (racy snapshots; exact at quiescence). *)
  val pending_fibers : t -> int
  val fibers_spawned : t -> int
  val fibers_completed : t -> int
  val steal_attempts : t -> int
  val steals_won : t -> int
  val run_queue_depth : t -> int -> int

  val register_metrics : t -> Wfq_obsv.Metrics.t -> prefix:string -> unit
end

module Make
    (A : Wfq_primitives.Atomic_intf.ATOMIC)
    (Q : RUN_QUEUE) : S = struct
  (* A fiber's overall computation always has type [unit]: user bodies
     are wrapped to deliver their value (or exception) to the fiber's
     promise via [Complete], so every captured continuation is a
     [(_, unit) Effect.Shallow.continuation]. *)
  type 'a state =
    | Completed of ('a, exn) result
    | Pending of ('a, unit) Effect.Shallow.continuation list
        (** waiters, most recent first; woken in FIFO order *)

  type 'a promise = 'a state A.t

  type task =
    | Fresh of (unit -> unit)  (** start a new fiber *)
    | Resume : ('a, unit) Effect.Shallow.continuation * 'a -> task
        (** resume a suspended fiber with an effect's result *)
    | Cancel : ('a, unit) Effect.Shallow.continuation * exn -> task
        (** resume a suspended fiber by raising at its await point
            (the awaited fiber failed) *)

  (* [Spawn]'s answer type must determine ['a], but ['a promise] is
     abstract over [A.t] and so not known injective; the concrete box
     restores deducibility. *)
  type 'a pbox = Prom of 'a promise

  type _ Effect.t +=
    | Yield : unit Effect.t
    | Await : 'a promise -> 'a Effect.t
    | Spawn : (unit -> 'a) -> 'a pbox Effect.t
    | Spawn_many : (unit -> 'a) list -> 'a pbox list Effect.t
          (** fan-out: all fresh tasks pushed in body order *)
    | Complete : 'a promise * ('a, exn) result * int -> unit Effect.t
          (** internal: fiber body finished; the [int] is its spawn
              timestamp for the latency histogram *)

  type worker = {
    shared : task Q.t;
        (** submitted and published tasks; the queue thieves sweep *)
    fifo : task Fifo.t;  (** owner-private: spawns, yields, wakeups *)
    mutable shared_maybe : bool;
        (** owner's hint: [false] only when [shared] is surely empty.
            Only the owner adds to [shared], so an empty dequeue by the
            owner stays true until its next add. *)
    hungry : bool A.t;
        (** raised by a thief whose sweep found nothing; a contended
            cell, since every thief reads it *)
  }

  type t = {
    workers : int;
    worker : worker array;  (** worker [i]'s queues *)
    handlers : (unit, unit) Effect.Shallow.handler array;
        (** worker [i]'s slice handler, closing over tid [i] *)
    outstanding : int A.t;  (** fibers spawned and not yet completed *)
    (* Always-on single-writer stats, indexed by the executing tid. *)
    spawned : C.t;
    completed : C.t;
    steal_attempts : C.t;  (** empty-local-queue sweeps entered *)
    steals_won : C.t;  (** tasks taken from another worker's queue *)
    published : C.t;  (** tasks moved from a private FIFO to [shared] *)
    rq_push : C.t array;  (** per worker: tasks queued, by pusher tid *)
    rq_take : C.t array;  (** per worker: tasks taken, by taker tid *)
    obsv : metrics option;
    clock : (unit -> int) option;  (** monotonic ns for fiber latency *)
  }

  let name = "sched(" ^ Q.name ^ ")"
  let num_workers t = t.workers
  let now t = match t.clock with Some f -> f () | None -> 0
  let pending_fibers t = A.get t.outstanding
  let fibers_spawned t = C.total t.spawned
  let fibers_completed t = C.total t.completed
  let steal_attempts t = C.total t.steal_attempts
  let steals_won t = C.total t.steals_won

  let run_queue_depth t i =
    if i < 0 || i >= t.workers then invalid_arg "Sched.run_queue_depth";
    C.total t.rq_push.(i) - C.total t.rq_take.(i)

  (* --- task plumbing ---------------------------------------------- *)

  (* Account [k] tasks queued on [tid]'s queues (private or shared).
     The depth sample is approximate, from the push/take counters: two
     plain sums over [workers] padded cells — no atomic traffic. *)
  let pushed t ~tid k =
    C.add t.rq_push.(tid) ~slot:tid k;
    match t.obsv with
    | Some m -> H.record m.m_depth ~slot:tid (max (run_queue_depth t tid) 0)
    | None -> ()

  (* Spawns, yields and wakeups land on the pushing worker's private
     FIFO; redistribution is the hunger protocol's job. *)
  let push_private t ~tid task =
    Fifo.push t.worker.(tid).fifo task;
    pushed t ~tid 1

  (* Submitted tasks go to the shared queue so that any worker can
     start them. A bounded queue's refused suffix spills to the private
     FIFO — the submitter owns [tid]'s slot, so that is safe — and
     keeps its order behind the accepted prefix, which [step] serves
     first. *)
  let push_shared t ~tid tasks =
    let w = t.worker.(tid) in
    let accepted = Q.try_enqueue_batch w.shared ~tid tasks in
    if accepted > 0 then w.shared_maybe <- true;
    List.iteri (fun i task -> if i >= accepted then Fifo.push w.fifo task) tasks;
    pushed t ~tid (List.length tasks)

  let wrap_body pr t0 f () =
    let r = match f () with v -> Ok v | exception e -> Error e in
    Effect.perform (Complete (pr, r, t0))

  (* Spawn accounting order matters: [outstanding] rises by the whole
     fan-out before any of its tasks becomes visible, so a worker can
     never observe an empty system ([outstanding = 0]) while a runnable
     task exists. *)
  let account t ~tid k =
    ignore (A.fetch_and_add t.outstanding k : int);
    C.add t.spawned ~slot:tid k

  let fresh t0 f =
    let pr = A.make (Pending []) in
    (pr, Fresh (wrap_body pr t0 f))

  let spawn_many_into t ~tid fs =
    let k = List.length fs in
    account t ~tid k;
    let t0 = now t and fifo = t.worker.(tid).fifo in
    let prs =
      List.map
        (fun f ->
          let pr, task = fresh t0 f in
          Fifo.push fifo task;
          pr)
        fs
    in
    pushed t ~tid k;
    prs

  let spawn_into t ~tid f = List.hd (spawn_many_into t ~tid [ f ])

  let submit_batch t ~tid fs =
    if tid < 0 || tid >= t.workers then invalid_arg "Sched.submit: tid";
    match fs with
    | [] -> []
    | fs ->
        account t ~tid (List.length fs);
        let t0 = now t in
        let entries = List.map (fresh t0) fs in
        push_shared t ~tid (List.map snd entries);
        List.map fst entries

  let submit t ~tid f = List.hd (submit_batch t ~tid [ f ])

  let result p =
    match A.get p with Completed r -> Some r | Pending _ -> None

  (* Complete the promise and wake its waiters. The exchange claims the
     whole waiter list atomically against concurrent [Await] CASes. The
     completed fiber's [outstanding] decrement comes last: until then
     the system still counts it, so no worker can exit between the
     value becoming visible and the waiters being requeued. *)
  let complete : type a. t -> tid:int -> a promise -> (a, exn) result
      -> int -> unit =
   fun t ~tid pr r t0 ->
    (match A.exchange pr (Completed r) with
    | Pending waiters ->
        (* Waiters are stored most recent first; wake them FIFO. *)
        List.iter
          (fun k ->
            push_private t ~tid
              (match r with Ok v -> Resume (k, v) | Error e -> Cancel (k, e)))
          (List.rev waiters)
    | Completed _ ->
        (* A promise is completed exactly once, by its own fiber. *)
        assert false);
    C.incr t.completed ~slot:tid;
    (match (t.obsv, t.clock) with
    | Some m, Some _ -> H.record m.m_latency ~slot:tid (max 0 (now t - t0))
    | _ -> ());
    ignore (A.fetch_and_add t.outstanding (-1) : int)

  (* --- the per-worker handler ------------------------------------- *)

  let rec await_with : type a. (unit, unit) Effect.Shallow.handler
      -> a promise -> (a, unit) Effect.Shallow.continuation -> unit =
   fun h p k ->
    match A.get p with
    | Completed (Ok v) -> Effect.Shallow.continue_with k v h
    | Completed (Error e) -> Effect.Shallow.discontinue_with k e h
    | Pending waiters as old ->
        if A.compare_and_set p old (Pending (k :: waiters)) then ()
          (* Suspended: the completing fiber now owns the wakeup. *)
        else await_with h p k

  let handler t ~tid : (unit, unit) Effect.Shallow.handler =
    let rec h =
      {
        Effect.Shallow.retc = (fun () -> ());
        exnc = (fun e -> raise e);
        effc =
          (fun (type c) (eff : c Effect.t) ->
            match eff with
            | Yield ->
                Some
                  (fun (k : (c, unit) Effect.Shallow.continuation) ->
                    push_private t ~tid (Resume (k, ())))
            | Spawn f ->
                Some
                  (fun k ->
                    Effect.Shallow.continue_with k
                      (Prom (spawn_into t ~tid f))
                      h)
            | Spawn_many fs ->
                Some
                  (fun k ->
                    let prs = spawn_many_into t ~tid fs in
                    Effect.Shallow.continue_with k
                      (List.map (fun p -> Prom p) prs)
                      h)
            | Await p -> Some (fun k -> await_with h p k)
            | Complete (pr, r, t0) ->
                Some
                  (fun k ->
                    complete t ~tid pr r t0;
                    Effect.Shallow.continue_with k () h)
            | _ -> None (* forward (e.g. the simulator's yields) *));
      }
    in
    h

  let create ?obsv ?clock ~num_workers () =
    if num_workers <= 0 then invalid_arg "Sched.create: num_workers";
    let counter () = C.create ~slots:num_workers () in
    let nil = Fresh ignore in
    let t =
      {
        workers = num_workers;
        worker =
          Array.init num_workers (fun _ ->
              {
                shared = Q.create ~num_threads:num_workers ();
                fifo = Fifo.create nil;
                shared_maybe = false;
                hungry = A.make_contended false;
              });
        handlers =
          Array.make num_workers
            { Effect.Shallow.retc = ignore; exnc = raise; effc = (fun _ -> None) };
        outstanding = A.make 0;
        spawned = counter ();
        completed = counter ();
        steal_attempts = counter ();
        steals_won = counter ();
        published = counter ();
        rq_push = Array.init num_workers (fun _ -> counter ());
        rq_take = Array.init num_workers (fun _ -> counter ());
        obsv;
        clock;
      }
    in
    Array.iteri (fun tid _ -> t.handlers.(tid) <- handler t ~tid) t.handlers;
    t

  let exec t ~tid task =
    let h = t.handlers.(tid) in
    match task with
    | Fresh body ->
        Effect.Shallow.continue_with (Effect.Shallow.fiber body) () h
    | Resume (k, v) -> Effect.Shallow.continue_with k v h
    | Cancel (k, e) -> Effect.Shallow.discontinue_with k e h

  (* --- the hunger protocol ----------------------------------------- *)

  (* A thief whose sweep found nothing raised [hungry] on its victims.
     The owner answers at its next step: it publishes the oldest half
     of its private FIFO to its shared queue with one batch. The batch
     is peeked, not popped, so a bounded queue's refused suffix simply
     stays at the head of the FIFO. With fewer than two private tasks
     there is nothing to share — the owner runs the last one itself —
     and the flag stays up for a later step. *)
  let publish t ~tid =
    let w = t.worker.(tid) in
    let n = Fifo.length w.fifo in
    if n >= 2 && A.get w.hungry then begin
      A.set w.hungry false;
      let batch = Fifo.peek w.fifo (n / 2) in
      let accepted = Q.try_enqueue_batch w.shared ~tid batch in
      Fifo.drop w.fifo accepted;
      if accepted > 0 then begin
        w.shared_maybe <- true;
        C.add t.published ~slot:tid accepted
      end
    end

  (* Read first, write only if clear: an idle thief re-sweeps often,
     and a store per sweep would bounce the victim's cache line. *)
  let raise_hunger t ~tid =
    Array.iteri
      (fun v w -> if v <> tid && not (A.get w.hungry) then A.set w.hungry true)
      t.worker

  (* --- taking work ------------------------------------------------- *)

  (* One steal lap in {!Steal_order} over the other workers' shared
     queues, with the same [is_empty] pre-check discipline as the
     shard sweep (most swept queues are empty; a full dequeue on an
     empty KP queue still runs the phase/descriptor ceremony). *)
  let steal t ~tid =
    let n = t.workers in
    C.incr t.steal_attempts ~slot:tid;
    let rec sweep i =
      if i = n then begin
        raise_hunger t ~tid;
        false
      end
      else
        let v = Steal_order.visit ~n ~start:tid i in
        let q = t.worker.(v).shared in
        if Q.is_empty q then sweep (i + 1)
        else
          match Q.dequeue q ~tid with
          | Some task ->
              C.incr t.rq_take.(v) ~slot:tid;
              C.incr t.steals_won ~slot:tid;
              exec t ~tid task;
              true
          | None -> sweep (i + 1)
    in
    sweep 1

  (* The shared queue first while it is non-empty, then the private
     FIFO, then one steal lap. Submitted and published tasks are older
     than what the owner queued privately since, so at one worker the
     order is exactly FIFO. *)
  let step t ~tid =
    publish t ~tid;
    let w = t.worker.(tid) in
    match if w.shared_maybe then Q.dequeue w.shared ~tid else None with
    | Some task ->
        C.incr t.rq_take.(tid) ~slot:tid;
        exec t ~tid task;
        true
    | None ->
        (* Written only on a change: thieves read this record. *)
        if w.shared_maybe then w.shared_maybe <- false;
        if Fifo.length w.fifo > 0 then begin
          C.incr t.rq_take.(tid) ~slot:tid;
          exec t ~tid (Fifo.pop w.fifo);
          true
        end
        else t.workers > 1 && steal t ~tid

  let drain t ~tid =
    let rec go n = if step t ~tid then go (n + 1) else n in
    go 0

  (* --- fiber-context API ------------------------------------------- *)

  let yield () = Effect.perform Yield
  let await p = Effect.perform (Await p)
  let spawn f = match Effect.perform (Spawn f) with Prom p -> p

  let spawn_many fs =
    match fs with
    | [] -> []
    | fs ->
        List.map (fun (Prom p) -> p) (Effect.perform (Spawn_many fs))

  (* --- parallel runner --------------------------------------------- *)

  (* Work until the system is empty: a failed take with [outstanding]
     still positive means some fiber is mid-execution on another worker,
     queued privately there, or suspended on a promise a running fiber
     will complete — back off and retry (each failed sweep has raised
     the hunger flags). [outstanding = 0] is stable (only fibers create
     fibers, and external submits are the caller's responsibility), so
     exiting is safe.

     The idle wait is the shared clamped {!Wfq_primitives.Backoff}
     schedule rather than a raw [cpu_relax] per probe: each failed
     probe doubles the spin-wait (16 .. 4096 relax hints), reset as
     soon as a task is found. An idle worker therefore re-enters the
     steal sweep geometrically less often — steal_attempts drops by an
     order of magnitude on imbalanced workloads (BENCH_sched.json) —
     while the clamp keeps the worst extra wake-up latency at one
     bounded spin. *)
  let worker_loop t ~tid =
    let b = Wfq_primitives.Backoff.create () in
    let rec go () =
      if step t ~tid then begin
        Wfq_primitives.Backoff.reset b;
        go ()
      end
      else if A.get t.outstanding > 0 then begin
        Wfq_primitives.Backoff.once b;
        go ()
      end
    in
    go ()

  let run t main =
    let pr = submit t ~tid:0 main in
    let others =
      Array.init (t.workers - 1) (fun i ->
          Domain.spawn (fun () -> worker_loop t ~tid:(i + 1)))
    in
    worker_loop t ~tid:0;
    Array.iter Domain.join others;
    match A.get pr with
    | Completed (Ok v) -> v
    | Completed (Error e) -> raise e
    | Pending _ ->
        (* outstanding hit 0, so every fiber — main included —
           completed. *)
        assert false

  (* --- observability ------------------------------------------------ *)

  let register_metrics t registry ~prefix =
    let open Wfq_obsv in
    List.iter
      (fun (n, c) -> Metrics.register registry (prefix ^ n) (Metrics.Counter c))
      [
        (".fibers_spawned", t.spawned);
        (".fibers_completed", t.completed);
        (".steal_attempts", t.steal_attempts);
        (".steals_won", t.steals_won);
        (".published", t.published);
      ];
    Metrics.gauge registry
      ~name:(prefix ^ ".pending_fibers")
      (fun () -> pending_fibers t);
    Array.iteri
      (fun i w ->
        let p = Printf.sprintf "%s.rq%d" prefix i in
        Metrics.register registry (p ^ ".pushes")
          (Metrics.Counter t.rq_push.(i));
        Metrics.register registry (p ^ ".takes")
          (Metrics.Counter t.rq_take.(i));
        (* The uniform RUN_QUEUE hook on the shared queue: every
           backend contributes at least its depth gauge here, plus its
           own diagnostics. *)
        Q.register_metrics w.shared registry ~prefix:p)
      t.worker
end

(* ------------------------------------------------------------------ *)
(* Run-queue backends                                                 *)
(* ------------------------------------------------------------------ *)

(* The shard front-end is not a registry entry, so it keeps its own
   adapter: two round-robin shards of opt-(1+2) KP. Those shards are
   unbounded, so every insert is accepted. *)

module Rq_shard (A : Wfq_primitives.Atomic_intf.ATOMIC) : RUN_QUEUE = struct
  module Sh = Wfq_shard.Shard.Make (A)
  include Sh

  let name = "shard_rr2"

  let create ~num_threads () =
    Sh.create ~policy:Wfq_shard.Shard.Round_robin ~shards:2 ~num_threads ()

  let try_enqueue_batch q ~tid xs =
    Sh.enqueue_batch q ~tid xs;
    List.length xs
end

(* The registry route: any {!Wfq_core.Queue_intf.BACKEND} as a
   run-queue. A QUEUE_BACKEND's [create] carries the optional [?obsv]
   hook, so the only adaptation needed is pinning [create] to the plain
   RUN_QUEUE arity — the configuration is the one the backend's spec
   selected. *)
module Rq_of
    (B : Wfq_core.Queue_intf.BACKEND)
    (A : Wfq_primitives.Atomic_intf.ATOMIC) : RUN_QUEUE = struct
  module Q = B.Make (A)
  include Q

  let create ~num_threads () = Q.create ~num_threads ()
end
