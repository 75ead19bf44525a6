(* The command-line converter for backend specs (docs/BACKENDS.md),
   shared by every binary that takes one: a spec [Backends.find]
   rejects is a usage error that names the offending part and the known
   ids, not a backtrace. *)

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
