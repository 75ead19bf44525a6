(* The command-line converters shared by the binaries: bad input is a
   usage error (exit 124) naming the value, never a backtrace. *)

(* Backend specs (docs/BACKENDS.md): a spec [Backends.find] rejects
   names the offending part and the known ids. *)

let conv : Wfq_core.Backends.t Cmdliner.Arg.conv =
  let parse s =
    match Wfq_core.Backends.find s with
    | b -> Ok b
    | exception Invalid_argument msg -> Error (`Msg msg)
  in
  let print ppf (module B : Wfq_core.Queue_intf.BACKEND) =
    Format.pp_print_string ppf B.id
  in
  Cmdliner.Arg.conv (parse, print)

(* Counts and rates are positive. *)
let positive of_string zero pp =
  let parse s =
    match of_string s with
    | Some v when v > zero -> Ok v
    | _ -> Error (`Msg (Printf.sprintf "expected a positive number, got %S" s))
  in
  Cmdliner.Arg.conv (parse, pp)

let pos_int = positive int_of_string_opt 0 Format.pp_print_int
let pos_float = positive float_of_string_opt 0. Format.pp_print_float
