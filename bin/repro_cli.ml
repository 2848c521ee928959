(* frontend-repro: command-line driver for the reproduction.

   Subcommands:
     list                     benchmarks and experiments
     characterize [BENCH..]   architecture-independent characteristics
     experiment ID            regenerate one table/figure
     report                   regenerate everything
     recommend [--suite S]    run the rebalancing engine
     experiments-md           emit EXPERIMENTS.md content
     serve                    characterization-as-a-service daemon
     cache clear|info         manage the persistent _cache/ directory
     worker                   internal: dispatch worker (spawned by
                              the --workers coordinator) *)

open Cmdliner

let scale_arg =
  let doc =
    "Scale factor on every benchmark's dynamic instruction budget \
     (1.0 = full runs, smaller = faster and noisier)."
  in
  Arg.(value & opt float 1.0 & info [ "scale" ] ~docv:"FACTOR" ~doc)

(* Evaluated per command invocation: [-j N] bounds the Engine domain
   pool and [--no-cache] disables the persistent cache, neither of
   which changes any result. *)
let jobs_arg =
  let doc =
    "Number of domains sharding per-benchmark trace runs (default: all \
     cores, or \\$(b,REPRO_JOBS)). Results are bit-identical for any value; \
     $(b,-j 1) forces a sequential run."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let no_cache_arg =
  let doc =
    "Ignore the persistent characterization cache (also \
     \\$(b,REPRO_CACHE=0)); every trace is regenerated."
  in
  Arg.(value & flag & info [ "no-cache" ] ~doc)

let trace_arg =
  let doc =
    "Record telemetry and print the hierarchical span tree (with \
     per-span total/self times), counters and gauges to stderr on \
     exit (also \\$(b,REPRO_TRACE=1)). Results are unaffected."
  in
  Arg.(value & flag & info [ "trace" ] ~doc)

let strict_arg =
  let doc =
    "Fail fast: the first failed measurement raises instead of degrading \
     to a marked $(b,!) hole in the tables (also \\$(b,REPRO_STRICT=1))."
  in
  Arg.(value & flag & info [ "strict" ] ~doc)

let faults_arg =
  let doc =
    "Deterministic fault injection, e.g. $(b,all:0.05:42) or \
     $(b,cache.read:0.1:7,engine.task:0.01:7) (also \\$(b,REPRO_FAULTS)). \
     Supervision absorbs the injected failures; results are unchanged."
  in
  Arg.(value & opt (some string) None & info [ "faults" ] ~docv:"SPEC" ~doc)

let retry_arg =
  let doc =
    "Retry budget for transient task failures (clamped to 0..10, \
     default 2)."
  in
  Arg.(value & opt (some int) None & info [ "retry" ] ~docv:"N" ~doc)

let dispatch_workers_arg =
  let doc =
    "Shard each experiment's task space across $(docv) worker processes \
     coordinated over lease-based message framing (clamped to 0..64; also \
     \\$(b,REPRO_WORKERS)). $(b,0), the default, runs fully in-process. \
     Workers share the persistent cache, so rendered output is \
     byte-identical for any value — a killed worker only costs wall time."
  in
  Arg.(value & opt (some int) None & info [ "workers" ] ~docv:"N" ~doc)

let apply_engine_flags trace jobs no_cache strict faults retry =
  if trace then Repro_util.Telemetry.set_enabled true;
  if no_cache then Repro_core.Cache.set_enabled false;
  if strict then Repro_core.Experiment.set_strict true;
  (match faults with
  | Some spec -> Repro_util.Faults.configure (Some spec)
  | None -> ());
  (match retry with
  | Some r -> Repro_core.Engine.set_retries r
  | None -> ());
  match jobs with
  | Some j when j > 0 -> Repro_core.Engine.set_default_jobs j
  | Some _ | None -> ()

(* One shared term: every experiment-running subcommand accepts the
   same engine/supervision knobs and applies them the same way.
   [engine_flags_base] omits the dispatch [--workers] option: [serve]
   and [worker] use it, so [serve --workers N] is an unknown-option
   error rather than a request for dispatch workers (the daemon's
   domain count is [--serve-workers]). *)
let engine_flags_base =
  Term.(
    const apply_engine_flags $ trace_arg $ jobs_arg $ no_cache_arg
    $ strict_arg $ faults_arg $ retry_arg)

let engine_flags =
  Term.(
    const (fun () workers ->
        match workers with
        | Some n -> Repro_core.Dispatch.set_workers (Some n)
        | None -> ())
    $ engine_flags_base $ dispatch_workers_arg)

(* ------------------------------------------------------------------ *)

let list_cmd =
  let run () =
    print_endline "Benchmarks:";
    List.iter
      (fun suite ->
        Printf.printf "  %-14s %s\n"
          (Repro_workload.Suite.to_string suite)
          (String.concat ", "
             (List.map
                (fun (p : Repro_workload.Profile.t) -> p.name)
                (Repro_workload.Suites.by_suite suite))))
      Repro_workload.Suite.all;
    print_endline "\nExperiments:";
    List.iter
      (fun id ->
        Printf.printf "  %-6s %s\n"
          (Repro_core.Experiment.to_string id)
          (Repro_core.Experiment.describe id))
      Repro_core.Experiment.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List benchmarks and experiments")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)

let characterize_cmd =
  let benches =
    Arg.(value & pos_all string [] & info [] ~docv:"BENCH"
           ~doc:"Benchmark names (default: one per suite)")
  in
  let profile_file =
    Arg.(value & opt (some string) None
         & info [ "profile" ] ~docv:"FILE"
             ~doc:"Characterize a user-defined profile file instead                    (see Repro_workload.Profile_io for the format)")
  in
  let run scale profile_file benches =
    let names =
      if benches = [] then [ "CoMD"; "botsspar"; "FT"; "gobmk" ] else benches
    in
    let lookup name =
      match profile_file with
      | Some path ->
          (match Repro_workload.Profile_io.load path with
          | Ok p -> Some p
          | Error e ->
              Printf.eprintf "cannot load %s: %s\n" path e;
              exit 1)
      | None ->
          List.find_opt
            (fun (p : Repro_workload.Profile.t) -> p.name = name)
            Repro_workload.Suites.all
    in
    let names = match profile_file with Some _ -> [ "(file)" ] | None -> names in
    List.iter
      (fun name ->
        match lookup name with
        | None -> Printf.eprintf "unknown benchmark %s (try `list`)\n" name
        | Some p ->
            let insts =
              max 50_000 (int_of_float (float_of_int p.total_insts *. scale))
            in
            let c = Repro_analysis.Characterization.of_profile ~insts p in
            let open Repro_analysis in
            let total = Branch_mix.Total in
            Printf.printf
              "%s (%s): %.1f%% branches, %.0f%% biased, %.0f%% backward-taken, \
               static %s, 99%%-dynamic %s, BBL %.0fB, taken-distance %.0fB\n"
              name
              (Repro_workload.Suite.to_string p.suite)
              (100.0 *. Branch_mix.branch_fraction c.mix total)
              (100.0 *. Branch_bias.biased_fraction c.bias total)
              (100.0 *. Branch_bias.backward_taken_fraction c.bias total)
              (Repro_util.Units.pp_bytes c.footprint.static_total)
              (Repro_util.Units.pp_bytes (Footprint.hot_bytes c.footprint total))
              (Bblock_stats.avg_block_bytes c.bblocks total)
              (Bblock_stats.avg_taken_distance c.bblocks total))
      names
  in
  Cmd.v
    (Cmd.info "characterize"
       ~doc:"Print architecture-independent characteristics of benchmarks")
    Term.(const run $ scale_arg $ profile_file $ benches)

(* ------------------------------------------------------------------ *)

let experiment_cmd =
  let id_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ID"
           ~doc:"Experiment id, e.g. fig5 or tab3")
  in
  let run scale () id =
    match Repro_core.Experiment.of_string id with
    | None ->
        Printf.eprintf "unknown experiment %s; valid ids: %s\n" id
          (String.concat " "
             (List.map Repro_core.Experiment.to_string
                Repro_core.Experiment.all));
        exit 1
    | Some id -> print_string (Repro_core.Report.run_to_string ~scale id)
  in
  Cmd.v (Cmd.info "experiment" ~doc:"Regenerate one table or figure")
    Term.(const run $ scale_arg $ engine_flags $ id_arg)

let report_cmd =
  let run scale () =
    print_string (Repro_core.Report.run_all_to_string ~scale ())
  in
  Cmd.v (Cmd.info "report" ~doc:"Regenerate every table and figure")
    Term.(const run $ scale_arg $ engine_flags)

let experiments_md_cmd =
  let run scale () =
    print_string (Repro_core.Report.experiments_markdown ~scale ())
  in
  Cmd.v
    (Cmd.info "experiments-md" ~doc:"Emit EXPERIMENTS.md body to stdout")
    Term.(const run $ scale_arg $ engine_flags)

(* ------------------------------------------------------------------ *)

let serve_cmd =
  let socket_arg =
    Arg.(value & opt string "_serve.sock"
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Unix-domain socket path to listen on (a stale socket \
                   file is replaced)")
  in
  let serve_workers_arg =
    Arg.(value & opt int 4
         & info [ "serve-workers" ] ~docv:"N"
             ~doc:"Accept/serve worker domains (clamped to 1..16); bounds \
                   concurrently served clients")
  in
  let run scale () socket workers =
    let module Server = Repro_core.Server in
    let cfg = { (Server.current_config ()) with Server.scale } in
    let t = Server.start ~config:cfg ~socket ~workers () in
    (* Signal handlers only set flags; the reload itself runs on the
       main domain inside [wait]'s tick, where taking locks is safe. *)
    let hup = Atomic.make false in
    let on_signal_stop = Sys.Signal_handle (fun _ -> Server.request_stop t) in
    List.iter
      (fun (signal, behaviour) ->
        try Sys.set_signal signal behaviour with Invalid_argument _ -> ())
      [ (Sys.sighup, Sys.Signal_handle (fun _ -> Atomic.set hup true));
        (Sys.sigint, on_signal_stop);
        (Sys.sigterm, on_signal_stop) ];
    Printf.printf
      "frontend-repro serve: listening on unix:%s (%d workers, scale %g)\n\
       SIGHUP reloads the REPRO_* environment; SIGTERM/SIGINT or a \
       shutdown op stops\n%!"
      (Server.sock_path t) workers scale;
    Server.wait
      ~on_tick:(fun () ->
        if Atomic.exchange hup false then begin
          let gen = Server.reload t (Server.env_config ()) in
          Printf.eprintf "serve: reloaded from environment, generation %d\n%!"
            gen
        end)
      t;
    Server.stop t;
    Printf.printf "serve: stopped\n%!"
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the characterization daemon: a long-lived socket server \
          answering concurrent experiment/report/stats requests over a \
          length-framed JSON protocol, with zero-downtime configuration \
          reload")
    Term.(const run $ scale_arg $ engine_flags_base $ socket_arg
          $ serve_workers_arg)

(* ------------------------------------------------------------------ *)

let cache_cmd =
  let clear =
    let run () =
      let n = Repro_core.Cache.entries () in
      Repro_core.Experiment.clear_cache ~disk:true ();
      Printf.printf "cleared %d cache entr%s under %s\n" n
        (if n = 1 then "y" else "ies")
        (Repro_core.Cache.dir ())
    in
    Cmd.v
      (Cmd.info "clear"
         ~doc:"Delete every persisted characterization and CMP measurement")
      Term.(const run $ const ())
  in
  let info_cmd =
    let run () =
      Printf.printf "directory: %s\nenabled:   %b\nentries:   %d\n"
        (Repro_core.Cache.dir ())
        (Repro_core.Cache.enabled ())
        (Repro_core.Cache.entries ())
    in
    Cmd.v (Cmd.info "info" ~doc:"Show cache location, state and entry count")
      Term.(const run $ const ())
  in
  Cmd.group
    (Cmd.info "cache"
       ~doc:
         "Manage the persistent characterization cache (_cache/, or \
          \\$(b,REPRO_CACHE_DIR))")
    [ clear; info_cmd ]

(* ------------------------------------------------------------------ *)

let recommend_cmd =
  let suite_arg =
    Arg.(value & opt (some string) None
         & info [ "suite" ] ~docv:"SUITE"
             ~doc:"Workload suite: exmatex, omp, npb, int, or hpc (default)")
  in
  let run scale suite =
    let profiles =
      match Option.map String.lowercase_ascii suite with
      | None | Some "hpc" ->
          List.concat_map Repro_workload.Suites.by_suite
            Repro_workload.Suite.hpc
      | Some "exmatex" -> Repro_workload.Suites.by_suite Repro_workload.Suite.Exmatex
      | Some "omp" -> Repro_workload.Suites.by_suite Repro_workload.Suite.Spec_omp
      | Some "npb" -> Repro_workload.Suites.by_suite Repro_workload.Suite.Npb
      | Some "int" -> Repro_workload.Suites.by_suite Repro_workload.Suite.Spec_int
      | Some other ->
          Printf.eprintf "unknown suite %s\n" other;
          exit 1
    in
    let insts = max 50_000 (int_of_float (2_000_000.0 *. scale)) in
    let r = Repro_core.Rebalance.recommend ~insts profiles in
    List.iter print_endline r.rationale;
    print_endline "\nPareto sweep (by area):";
    List.iter
      (fun (e : Repro_core.Rebalance.estimate) ->
        Printf.printf "  %-40s %.2f mm2  %.2f W  worst %+5.1f%%  avg %+5.1f%%\n"
          (Repro_uarch.Frontend_config.name e.config)
          e.area_mm2 e.power_w
          (100.0 *. (e.slowdown -. 1.0))
          (100.0 *. (e.avg_slowdown -. 1.0)))
      r.candidates
  in
  Cmd.v
    (Cmd.info "recommend"
       ~doc:"Sweep front-end designs and recommend the cheapest safe one")
    Term.(const run $ scale_arg $ suite_arg)

let ablation_cmd =
  let suite_arg =
    Arg.(value & opt string "npb"
         & info [ "suite" ] ~docv:"SUITE" ~doc:"exmatex, omp, npb, int or hpc")
  in
  let run scale suite =
    let profiles =
      match suite with
      | "hpc" ->
          List.concat_map Repro_workload.Suites.by_suite
            Repro_workload.Suite.hpc
      | "exmatex" -> Repro_workload.Suites.by_suite Repro_workload.Suite.Exmatex
      | "omp" -> Repro_workload.Suites.by_suite Repro_workload.Suite.Spec_omp
      | "npb" -> Repro_workload.Suites.by_suite Repro_workload.Suite.Npb
      | "int" -> Repro_workload.Suites.by_suite Repro_workload.Suite.Spec_int
      | other ->
          Printf.eprintf "unknown suite %s\n" other;
          exit 1
    in
    let insts = max 50_000 (int_of_float (2_000_000.0 *. scale)) in
    Repro_util.Table.print
      (Repro_core.Ablation.table (Repro_core.Ablation.run ~insts profiles))
  in
  Cmd.v
    (Cmd.info "ablation"
       ~doc:"Isolate each downsized structure's area/power/performance share")
    Term.(const run $ scale_arg $ suite_arg)

let scaling_cmd =
  let bench_arg =
    Arg.(value & pos 0 string "CoEVP" & info [] ~docv:"BENCH")
  in
  let run scale bench =
    let p = Repro_workload.Suites.find bench in
    let insts =
      max 50_000 (int_of_float (float_of_int p.total_insts *. scale))
    in
    Repro_util.Table.print
      (Repro_core.Thread_scaling.table bench
         (Repro_core.Thread_scaling.sweep ~insts p))
  in
  Cmd.v
    (Cmd.info "scaling"
       ~doc:"Serial-bottleneck growth with core count (Section III-D)")
    Term.(const run $ scale_arg $ bench_arg)

let export_cmd =
  let dir_arg =
    Arg.(value & opt string "results"
         & info [ "dir" ] ~docv:"DIR" ~doc:"Output directory for CSV files")
  in
  let ids_arg =
    Arg.(value & pos_all string [] & info [] ~docv:"ID"
           ~doc:"Experiment ids (default: all)")
  in
  let run scale () dir ids =
    let ids =
      match ids with
      | [] -> Repro_core.Experiment.all
      | picks ->
          List.filter_map
            (fun s ->
              match Repro_core.Experiment.of_string s with
              | Some id -> Some id
              | None ->
                  Printf.eprintf "unknown experiment %s (skipped)\n" s;
                  None)
            picks
    in
    List.iter
      (fun id ->
        let paths = Repro_core.Export.write_experiment ~scale ~dir id in
        List.iter (Printf.printf "wrote %s\n") paths)
      ids
  in
  Cmd.v (Cmd.info "export" ~doc:"Write experiment results as CSV files")
    Term.(const run $ scale_arg $ engine_flags $ dir_arg $ ids_arg)

let worker_cmd =
  let run () = Repro_core.Dispatch.worker_main () in
  Cmd.v
    (Cmd.info "worker"
       ~doc:
         "Run a dispatch worker over the internal stdin/stdout protocol \
          (spawned by an experiment/report coordinator running with \
          --workers)")
    Term.(const run $ engine_flags_base)

let () =
  (* A process spawned as a dispatch worker carries the env marker and
     must enter the protocol loop before any CLI parsing. *)
  Repro_core.Dispatch.maybe_worker ();
  let doc =
    "Reproduction of 'Rebalancing the Core Front-End through HPC Code \
     Analysis' (IISWC 2016)"
  in
  (* Print the span tree after the chosen subcommand ran, whether
     telemetry came from --trace or from REPRO_TRACE=1 in the
     environment. Recording without either leaves this silent. *)
  at_exit (fun () ->
      if Repro_util.Telemetry.enabled () then
        prerr_string (Repro_util.Telemetry.report ()));
  let info = Cmd.info "frontend-repro" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; characterize_cmd; experiment_cmd; report_cmd;
            experiments_md_cmd; recommend_cmd; ablation_cmd; scaling_cmd;
            export_cmd; serve_cmd; cache_cmd; worker_cmd ]))
