(** Live-space measurement for Figure 10: the OCaml equivalent of the
    paper's [-verbose:gc] sampling is [Gc.full_major] followed by
    [Gc.stat ()].live_words. *)

val live_words : unit -> int
(** Live heap words after a full major collection. *)

val footprint : Workload.queue -> size:int -> int
(** Heap words attributable to a queue holding [size] elements: live
    words with it minus live words without it, excluding the
    {!Wfq_core.Queue_intf.instance} closure record the harness reaches
    it through. *)

val footprint_active : Workload.queue -> size:int -> iters:int -> samples:int -> int
(** Like {!footprint} but averaged over samples taken while an
    enqueue-dequeue workload runs over the filled queue — closer to the
    paper's mid-benchmark sampling. *)
