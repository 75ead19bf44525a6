(** The production implementation of {!Atomic_intf.ATOMIC}: a zero-cost
    wrapper over [Stdlib.Atomic]. *)

type 'a t = 'a Atomic.t

let make = Atomic.make

(* An [Atomic.t] is a one-field block, and every atomic primitive reads
   and writes field 0 only. A contended cell is the same block grown to
   [padded_words] fields: field 0 is the cell, the rest are immediate
   [()] that the GC skips over. The padding lives inside the cell's own
   block, so the minor GC copies it along at promotion; padding a record
   that merely points at the cell (the older approach) keeps the record
   apart but lets the promoted two-word cells pack together. 16 words
   (128 bytes) cover one x86-64 cache line plus its adjacent-line
   prefetch partner; OCaml 5.2's [Atomic.make_contended] and
   multicore-magic's [copy_as_padded] build the same block. *)
let padded_words = 16

let make_contended v =
  let block = Obj.new_block 0 padded_words in
  Obj.set_field block 0 (Obj.repr v);
  (Obj.obj block : 'a t)

let get = Atomic.get
let set = Atomic.set
let compare_and_set = Atomic.compare_and_set
let exchange = Atomic.exchange
let fetch_and_add = Atomic.fetch_and_add
