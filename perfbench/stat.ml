(* Order statistics over the samples one phase collected. *)

(* Nearest-rank percentile, [p] in [0, 100], of the samples in [a];
   [a] is left untouched. [nan] when there are none. *)
let percentile a p =
  let len = Array.length a in
  if len = 0 then nan
  else begin
    let s = Array.copy a in
    Array.sort Int.compare s;
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int len)) in
    float_of_int s.(max 0 (min (len - 1) (rank - 1)))
  end

let median = function
  | [] -> nan
  | xs ->
      let s = Array.of_list xs in
      Array.sort Float.compare s;
      let n = Array.length s in
      if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* Minor-heap words allocated and minor collections, summed over every
   domain that has run or is running (OCaml 5 folds a joined domain's
   counters into the totals). *)
type gc = { words : float; minors : int }

let gc_now () =
  let s = Gc.quick_stat () in
  { words = s.minor_words; minors = s.minor_collections }

let gc_since g0 =
  let g = gc_now () in
  { words = g.words -. g0.words; minors = g.minors - g0.minors }
