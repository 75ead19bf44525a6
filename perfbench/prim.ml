(* The primitive layer: solo loops over the atomic cell and the clock
   every queue operation and every timestamp is built from, and the
   plausibility gate that uses them as a floor. *)

module A = Wfq_primitives.Real_atomic

let now = Phase.now

(* ns per iteration of [body] over [iters] iterations, median of five
   batches so one descheduling does not move it. *)
let per_op_ns ~iters body =
  let batch () =
    let t0 = now () in
    body iters;
    float_of_int (now () - t0) /. float_of_int iters
  in
  Stat.median (List.init 5 (fun _ -> batch ()))

let get_ns ~iters =
  let c = A.make 0 in
  per_op_ns ~iters (fun n ->
      let acc = ref 0 in
      for _ = 1 to n do
        acc := !acc + A.get (Sys.opaque_identity c)
      done;
      ignore (Sys.opaque_identity !acc))

let cas_ns ~iters =
  let c = A.make 0 in
  per_op_ns ~iters (fun n ->
      for i = 0 to n - 1 do
        ignore (Sys.opaque_identity (A.compare_and_set c i (i + 1)))
      done;
      A.set c 0)

let faa_ns ~iters =
  let c = A.make 0 in
  per_op_ns ~iters (fun n ->
      for _ = 1 to n do
        ignore (Sys.opaque_identity (A.fetch_and_add c 1))
      done)

let clock_ns ~iters =
  per_op_ns ~iters (fun n ->
      for _ = 1 to n do
        ignore (Sys.opaque_identity (now ()))
      done)

(* Every pair on one domain is an enqueue and a dequeue, and each
   linearizes with at least one atomic read-modify-write on shared
   state, so no domain can finish a pair faster than two uncontended
   CASes. A faster figure is a measuring fault (a lost operation, a
   wrong clock, a miscounted domain), never a result. *)
let min_pair_cas = 2.

let plausible ~cas_ns ~ns_per_pair = ns_per_pair >= min_pair_cas *. cas_ns
