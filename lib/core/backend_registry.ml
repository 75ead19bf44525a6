(** The backend registry (docs/BACKENDS.md): the single list every
    generic client iterates. [Backends] registers the in-tree
    configurations at module initialization; adding a backend to the
    whole test/bench/observability battery is one {!register} call
    there.

    Registration is construction-time only (no locking: OCaml module
    initialization is sequential), and the registry is append-only —
    [all] returns entries in registration order so benchmark and test
    output stays stable.

    {!find} takes a spec, [<id>[?key=value&…]]: the keys override the
    entry's defaults (docs/BACKENDS.md lists them). The spec is parsed
    here, once, and the backend it returns is configured at
    construction — nothing of the spec reaches the operation path.

    A seeded fault ([fault=…]) is a key only the model checker may set:
    {!find} rejects it unless called with [~sim:true], which
    [Wfq_sim.Check.of_spec] does. *)

type t = (module Queue_intf.BACKEND)

type entry = {
  backend : t;  (** the registered default configuration *)
  keys : string list;  (** the keys a spec may set *)
  configure : spec:string -> (string * string) list -> t;
      (** the entry under a spec's overrides, each key in [keys] *)
}

let registered : entry list ref = ref []

let id (module B : Queue_intf.BACKEND) = B.id

let register_with ~keys ~configure (module B : Queue_intf.BACKEND) =
  if List.exists (fun e -> id e.backend = B.id) !registered then
    invalid_arg (Printf.sprintf "Backend_registry.register: duplicate %S" B.id);
  registered :=
    { backend = (module B : Queue_intf.BACKEND); keys; configure }
    :: !registered

let register b =
  register_with ~keys:[] ~configure:(fun ~spec:_ _ -> b) b

let all () = List.rev_map (fun e -> e.backend) !registered
let ids () = List.map id (all ())

let fail spec fmt =
  Printf.ksprintf
    (fun msg -> invalid_arg (Printf.sprintf "Backends.find %S: %s" spec msg))
    fmt

let sim_only_keys = [ "fault" ]

let find ?(sim = false) spec =
  let key, query =
    match String.index_opt spec '?' with
    | None -> (spec, None)
    | Some i ->
        ( String.sub spec 0 i,
          Some (String.sub spec (i + 1) (String.length spec - i - 1)) )
  in
  match List.find_opt (fun e -> id e.backend = key) !registered with
  | None ->
      fail spec "unknown backend %S (known: %s)" key
        (String.concat ", " (ids ()))
  | Some e -> (
      match query with
      | None -> e.backend
      | Some q ->
          let pair kv =
            match String.index_opt kv '=' with
            | Some i when i > 0 && i < String.length kv - 1 ->
                let k = String.sub kv 0 i in
                if not (List.mem k e.keys) then
                  fail spec "unknown key %S for %s (keys: %s)" k key
                    (match e.keys with
                    | [] -> "none"
                    | ks -> String.concat ", " ks);
                if (not sim) && List.mem k sim_only_keys then
                  fail spec "key %S is simulator-only (Wfq_sim.Check.of_spec)"
                    k;
                (k, String.sub kv (i + 1) (String.length kv - i - 1))
            | _ -> fail spec "malformed %S (expected key=value)" kv
          in
          let kvs = List.map pair (String.split_on_char '&' q) in
          List.iter
            (fun (k, _) ->
              if List.length (List.filter (fun (k', _) -> k' = k) kvs) > 1
              then fail spec "key %S given twice" k)
            kvs;
          e.configure ~spec kvs)
