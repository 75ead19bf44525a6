(* The repository benchmark's entry point: see README.md in this directory.

   --trace 0 measures the chosen workload's end-to-end metrics on every
   backend, with tracing off. --trace 1 is the separate traced run: it
   measures every layer on the workload that exercises it, so every
   traced run reports the whole per-layer set. The last stdout line is
   the result object; the first is the run's metadata. *)

open Perfbench

let backends = [ "kp-opt12"; "fps-pooled"; "ring" ]

type workload = Pairs | Stream | Fanout

let workloads = [ ("pairs", Pairs); ("stream", Stream); ("fanout", Fanout) ]

(* Repetitions per backend in an untraced run, interleaved across the
   backends; each metric is the median over them. *)
let reps = 10

type run = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  mutable metrics : (string * float * string) list;  (** reverse order *)
}

let add run name unit v = run.metrics <- (name, v, unit) :: run.metrics

let absorb run label (ph : Phase.t) =
  Printf.eprintf "phase %-20s setup %8.3f ms  %12.1f /s  latency %10.3f us  attempted %d failed %d\n%!"
    label (float_of_int ph.setup_ns *. 1e-6) ph.throughput ph.latency_us ph.attempted ph.failed;
  run.attempted <- run.attempted + ph.attempted;
  run.failed <- run.failed + ph.failed;
  run.errors <- run.errors @ List.map (fun e -> label ^ ": " ^ e) ph.errors;
  ph

let name_of w = fst (List.find (fun (_, w') -> w' = w) workloads)

let phase run w ~backend ~seconds ~seed ~cas_ns ?spans ?(domains = 2) () =
  absorb run (name_of w ^ "/" ^ backend)
    (match w with
    | Pairs -> Pairs.run ~backend ~domains ~seconds ~seed ~cas_ns ?spans ()
    | Stream -> Stream.run ~backend ~seconds ~seed ?spans ()
    | Fanout -> Fanout.run ~backend ~workers:domains ~seconds ~seed ?spans ())

let untraced run w ~seconds ~seed =
  let cas_ns = Prim.cas_ns ~iters:1_000_000 in
  let phase_s = seconds /. float_of_int (reps * List.length backends) in
  let nb = List.length backends in
  let results =
    List.concat
      (List.init reps (fun r ->
           (* rotate the order so no backend always runs first *)
           List.init nb (fun j ->
               let backend = List.nth backends ((r + j) mod nb) in
               ( backend,
                 phase run w ~backend ~seconds:phase_s ~seed:((seed * reps) + r) ~cas_ns () ))))
  in
  add run "setup_s" "s"
    (Stat.median (List.map (fun (_, p) -> float_of_int p.Phase.setup_ns *. 1e-9) results));
  List.iter
    (fun b ->
      let mine = List.filter_map (fun (b', p) -> if b = b' then Some p else None) results in
      add run ("throughput." ^ b) "1/s"
        (Stat.median (List.map (fun p -> p.Phase.throughput) mine));
      add run ("latency_us." ^ b) "us"
        (Stat.median (List.map (fun p -> p.Phase.latency_us) mine)))
    backends

let traced run ~seconds ~seed ~spans_out ~meta =
  let phase_s = seconds /. float_of_int (8 * List.length backends) in
  let prim = [ ("get_ns", Prim.get_ns); ("cas_ns", Prim.cas_ns); ("faa_ns", Prim.faa_ns); ("clock_ns", Prim.clock_ns) ] in
  let prim = List.map (fun (n, f) -> (n, f ~iters:2_000_000)) prim in
  List.iter (fun (n, v) -> add run ("primitives." ^ n) "ns" v) prim;
  let cas_ns = List.assoc "cas_ns" prim in
  let spans = Spans.create ~domains:2 ~capacity:(1 lsl 14) in
  let oc = open_out spans_out in
  output_string oc ("# " ^ meta ^ "\n# phase\tdomain\tspan\tparent\treq\tstart_ns\tstop_ns\n");
  let pick (ph : Phase.t) n = List.assoc n ph.layer in
  let overheads = ref [] in
  let overhead w v = overheads := (w, v) :: !overheads in
  List.iter
    (fun b ->
      let go ?spans ?domains w = phase run w ~backend:b ~seconds:phase_s ~seed ~cas_ns ?spans ?domains () in
      let traced_phase w =
        let t0 = Phase.now () in
        let ph = go ~spans w in
        Spans.write oc ~label:(name_of w ^ "/" ^ b) ~t0 spans;
        ph
      in
      let keep ph unit names = List.iter (fun n -> add run (n ^ "." ^ b) unit (pick ph n)) names in
      (* core, on pairs *)
      let pu = go Pairs in
      let pt = traced_phase Pairs in
      let p1 = go ~domains:1 Pairs in
      keep pt "ns" [ "core.enq_ns_p50"; "core.enq_ns_p99"; "core.deq_ns_p50"; "core.deq_ns_p99" ];
      keep pu "words/op" [ "core.words_per_op" ];
      keep pu "1/s" [ "core.minor_gcs" ];
      keep pt "1/op" [ "core.slow_path_share" ];
      add run ("core.mops_1domain." ^ b) "Mop/s" (p1.throughput /. 1e6);
      overhead "pairs" ((pu.throughput /. pt.throughput) -. 1.);
      (* generator and shard, on stream *)
      let su = go Stream in
      let st = traced_phase Stream in
      keep st "ns"
        (List.concat_map
           (fun n -> [ n ^ "_p50"; n ^ "_p99" ])
           [ "stream.gen_late_ns"; "shard.enq_ns"; "stream.residency_ns"; "shard.deq_ns" ]);
      keep su "1/event" [ "shard.empty_deq_per_event"; "shard.steals_per_event" ];
      keep su "us" [ "stream.sojourn_p99_us"; "stream.sojourn_p999_us" ];
      keep su "words/event" [ "stream.words_per_event" ];
      keep su "1/s" [ "stream.minor_gcs" ];
      overhead "stream" ((st.latency_us /. su.latency_us) -. 1.);
      (* scheduler, on fanout *)
      let fu = go Fanout in
      let ft = traced_phase Fanout in
      let f1 = go ~domains:1 Fanout in
      keep ft "ns" [ "sched.spawn_many_ns_p50"; "sched.yield_resume_ns_p50"; "sched.yield_resume_ns_p99" ];
      keep fu "1/req" [ "sched.steal_attempts_per_req" ];
      keep fu "share" [ "sched.steal_win_ratio" ];
      keep ft "us" [ "sched.request_p50_us"; "sched.request_p99_us" ];
      add run ("sched.requests_per_s_1worker." ^ b) "1/s" f1.throughput;
      keep fu "words/req" [ "fanout.words_per_req" ];
      keep fu "1/s" [ "fanout.minor_gcs" ];
      overhead "fanout" ((fu.throughput /. ft.throughput) -. 1.))
    backends;
  close_out oc;
  List.iter
    (fun (w, _) ->
      let mine = List.filter_map (fun (w', v) -> if w = w' then Some v else None) !overheads in
      add run ("trace.overhead." ^ w) "share" (Stat.median mine))
    workloads

(* The traced run writes its spans here, under the working directory. *)
let spans_dir = ".perfbench_out"

let json_string s = Printf.sprintf "%S" s

let meta ~workload ~seed ~seconds ~trace ~rev =
  let runparam = Option.value (Sys.getenv_opt "OCAMLRUNPARAM") ~default:"" in
  Printf.sprintf
    "{\"meta\": {\"cores\": %d, \"ocaml\": %s, \"ocamlrunparam\": %s, \
     \"minor_heap_words\": %d, \"git_rev\": %s, \"workload\": %s, \"seed\": %d, \
     \"seconds\": %d, \"trace\": %d, \"backends\": [%s]}}"
    (Domain.recommended_domain_count ())
    (json_string Sys.ocaml_version) (json_string runparam)
    (Gc.get ()).minor_heap_size (json_string rev) (json_string workload) seed
    seconds (Bool.to_int trace)
    (String.concat ", " (List.map json_string backends))

let main workload seed seconds trace rev =
  let meta = meta ~workload ~seed ~seconds ~trace ~rev in
  print_endline meta;
  let run = { attempted = 0; failed = 0; errors = []; metrics = [] } in
  let seconds = float_of_int seconds in
  if trace then begin
    if not (Sys.file_exists spans_dir) then Sys.mkdir spans_dir 0o755;
    traced run ~seconds ~seed ~spans_out:(Filename.concat spans_dir "spans.tsv") ~meta
  end
  else untraced run (List.assoc workload workloads) ~seconds ~seed;
  let metrics = List.rev run.metrics in
  List.iter
    (fun (n, v, _) ->
      if not (Float.is_finite v) then
        run.errors <- run.errors @ [ Printf.sprintf "metric %s has no finite value" n ])
    metrics;
  List.iter (fun (n, v, u) -> Printf.eprintf "%-40s %14.6g %s\n" n v u) metrics;
  List.iter (fun e -> Printf.eprintf "FAILED CHECK %s\n" e) run.errors;
  let correct = run.errors = [] in
  (* A run that failed a check reports no metrics: none of them can be
     trusted, and the plausibility gate's rejections are never shown. *)
  let body =
    if correct then
      String.concat ", "
        (List.map
           (fun (n, v, u) -> Printf.sprintf "%s: {\"value\": %.17g, \"unit\": %s}" (json_string n) v (json_string u))
           metrics)
    else ""
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 run.attempted) run.failed body;
  if correct then 0 else 1

open Cmdliner

let positive =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "%S is not a whole number of seconds >= 1" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let cmd =
  let workload =
    Arg.(required & opt (some (enum (List.map (fun (n, _) -> (n, n)) workloads))) None
         & info [ "workload" ] ~doc:"pairs, stream or fanout.")
  in
  let seed = Arg.(required & opt (some int) None & info [ "seed" ] ~doc:"Input seed.") in
  let seconds =
    Arg.(value & opt positive 10 & info [ "seconds" ] ~doc:"Measured seconds in the run.")
  in
  let trace =
    Arg.(value & opt (enum [ ("0", false); ("1", true) ]) false
         & info [ "trace" ] ~doc:"1: the traced per-layer run.")
  in
  let rev = Arg.(value & opt string "unknown" & info [ "rev" ] ~doc:"Source revision, for the metadata.") in
  Cmd.v
    (Cmd.info "perfbench" ~doc:"The repository benchmark.")
    Term.(const main $ workload $ seed $ seconds $ trace $ rev)

let () = exit (Cmd.eval' cmd)
