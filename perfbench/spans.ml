(* Flight-recorder spans for the traced run.

   Each recording domain owns one preallocated circular buffer and is
   its only writer, so recording is four plain array stores and no
   allocation. A buffer keeps the last [capacity] spans; the analysis
   and the span file use what is retained. Buffers are read only after
   the domains that wrote them have been joined. *)

type kind =
  | Pair  (** one enqueue-then-dequeue pair on [pairs] *)
  | Core_enq
  | Core_deq
  | Event  (** one [stream] event, intended send time to dequeue return *)
  | Gen  (** intended send time to the actual send *)
  | Shard_enq
  | Shard_deq
  | Request  (** one [fanout] request *)
  | Spawn_many
  | Yield  (** a subfiber's [yield]: call to resume *)

let kind_name = function
  | Pair -> "pairs.pair"
  | Core_enq -> "core.enq"
  | Core_deq -> "core.deq"
  | Event -> "stream.event"
  | Gen -> "stream.gen"
  | Shard_enq -> "shard.enq"
  | Shard_deq -> "shard.deq"
  | Request -> "fanout.request"
  | Spawn_many -> "sched.spawn_many"
  | Yield -> "sched.yield"

(* The span that causes a span of this kind, within the same request.
   The tree is fixed, so it is not stored per span: spans of one
   request share [req], and (req, parent kind) names the parent. *)
let parent = function
  | Core_enq | Core_deq -> Some Pair
  | Gen | Shard_enq | Shard_deq -> Some Event
  | Spawn_many | Yield -> Some Request
  | Pair | Event | Request -> None

type buf = {
  kinds : kind array;
  reqs : int array;
  starts : int array;
  stops : int array;
  mask : int;
  mutable n : int;  (** spans ever recorded since the last [reset] *)
}

type t = { bufs : buf array; next_slot : int Atomic.t; mutable gen : int }

let create ~domains ~capacity =
  if capacity <= 0 || capacity land (capacity - 1) <> 0 then
    invalid_arg "Spans.create: capacity must be a power of two";
  let buf () =
    {
      kinds = Array.make capacity Pair;
      reqs = Array.make capacity 0;
      starts = Array.make capacity 0;
      stops = Array.make capacity 0;
      mask = capacity - 1;
      n = 0;
    }
  in
  { bufs = Array.init domains (fun _ -> buf ()); next_slot = Atomic.make 0; gen = 0 }

(* Which buffer the current domain writes, tagged with the generation
   of the phase that assigned it. *)
let slot_key : (int * int) Domain.DLS.key =
  Domain.DLS.new_key (fun () -> (-1, -1))

let generations = Atomic.make 0

(* Start a new phase: empty every buffer and forget which domain owned
   which. Call before spawning the phase's domains. *)
let reset t =
  t.gen <- 1 + Atomic.fetch_and_add generations 1;
  Atomic.set t.next_slot 0;
  Array.iter (fun b -> b.n <- 0) t.bufs

(* The calling domain's buffer; the first call in a phase claims one. *)
let local t =
  let gen, slot = Domain.DLS.get slot_key in
  if gen = t.gen then t.bufs.(slot)
  else begin
    let slot = Atomic.fetch_and_add t.next_slot 1 in
    if slot >= Array.length t.bufs then
      failwith "Spans.local: more recording domains than buffers";
    Domain.DLS.set slot_key (t.gen, slot);
    t.bufs.(slot)
  end

let record b kind ~req ~start ~stop =
  let i = b.n land b.mask in
  b.kinds.(i) <- kind;
  b.reqs.(i) <- req;
  b.starts.(i) <- start;
  b.stops.(i) <- stop;
  b.n <- b.n + 1

(* [f domain kind ~req ~start ~stop] over every retained span. *)
let iter t f =
  Array.iteri
    (fun d b ->
      let kept = min b.n (b.mask + 1) in
      for k = b.n - kept to b.n - 1 do
        let i = k land b.mask in
        f d b.kinds.(i) ~req:b.reqs.(i) ~start:b.starts.(i) ~stop:b.stops.(i)
      done)
    t.bufs

(* Durations of the retained spans of one kind. *)
let durations t kind =
  let acc = ref [] in
  iter t (fun _ k ~req:_ ~start ~stop ->
      if k = kind then acc := (stop - start) :: !acc);
  Array.of_list !acc

(* Tab-separated, one span per line, times in ns from [t0]. *)
let write oc ~label ~t0 t =
  iter t (fun d k ~req ~start ~stop ->
      Printf.fprintf oc "%s\t%d\t%s\t%s\t%d\t%d\t%d\n" label d (kind_name k)
        (match parent k with Some p -> kind_name p | None -> "-")
        req (start - t0) (stop - t0))
