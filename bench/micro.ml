(* Bechamel microbenchmarks of the simulator substrate: one group per
   hardware structure plus the end-to-end trace generator. *)

module W = Repro_workload
module A = Repro_analysis
module F = Repro_frontend

let run () =
  let open Bechamel in
  let open Toolkit in
  (* Pre-generate a small dynamic trace once; benchmarks replay it. *)
  let executor = W.Executor.create ~insts:60_000 (W.Suites.find "FT") in
  let insts = ref [] and branches = ref [] in
  W.Executor.run executor (fun (i : Repro_isa.Inst.t) ->
      insts := (i.addr, i.size) :: !insts;
      if i.kind = Repro_isa.Inst.Cond_branch then
        branches := (i.addr, i.taken) :: !branches);
  let insts = Array.of_list (List.rev !insts)
  and branches = Array.of_list (List.rev !branches) in
  let bench name f = Test.make ~name (Staged.stage f) in
  let bp_test name mk =
    bench name (fun () ->
        let p : F.Predictor.t = mk () in
        Array.iter
          (fun (pc, taken) ->
            ignore (p.predict pc);
            p.update pc taken)
          branches)
  in
  let tests =
    [ bp_test "gshare-small/60k-branches" F.Zoo.gshare_small;
      bp_test "tournament-small/60k-branches" F.Zoo.tournament_small;
      bp_test "tage-big/60k-branches" F.Zoo.tage_big;
      bp_test "L-gshare-small/60k-branches" (fun () ->
          F.Zoo.with_loop (F.Zoo.gshare_small ()));
      bench "btb-1K/60k-branches" (fun () ->
          let b = F.Btb.create ~entries:1024 ~assoc:4 in
          Array.iter
            (fun (pc, taken) ->
              if taken then begin
                ignore (F.Btb.lookup b ~pc);
                F.Btb.insert b ~pc ~target:(pc + 16)
              end)
            branches);
      bench "icache-16K/60k-insts" (fun () ->
          let c =
            F.Icache.create ~size_bytes:16384 ~line_bytes:64 ~assoc:4 ()
          in
          Array.iter
            (fun (addr, size) -> ignore (F.Icache.access c ~addr ~size))
            insts);
      bench "trace-generation/60k-insts" (fun () ->
          W.Executor.run executor (fun _ -> ()));
      bench "characterize/60k-insts" (fun () ->
          ignore
            (A.Characterization.of_trace ~name:"bench" ~suite:W.Suite.Npb
               (W.Executor.trace executor))) ]
  in
  print_endline "==== microbenchmarks (Bechamel, monotonic clock) ====";
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.8) ~kde:(Some 10) ()
  in
  let raw =
    Benchmark.all cfg [ instance ]
      (Test.make_grouped ~name:"frontend-repro" tests)
  in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  Hashtbl.fold
    (fun name r acc -> (name, r) :: acc)
    (Analyze.all ols instance raw)
    []
  |> List.sort compare
  |> List.iter (fun (name, result) ->
         match Analyze.OLS.estimates result with
         | Some (t :: _) -> Printf.printf "  %-48s %12.0f ns/run\n" name t
         | Some [] | None -> Printf.printf "  %-48s (no estimate)\n" name);
  print_newline ()
