(* Shard the task space across worker processes first (with
   --workers/REPRO_WORKERS; a no-op at the default worker count of 0),
   then run the experiment, which renders from the shared cache, and
   append each of its tables to [buf]. *)
let render_into buf ?scale ?jobs id =
  Dispatch.prefetch ?scale id;
  let tables = Experiment.run ?scale ?jobs id in
  (* Rendering is spanned separately so the trace tree distinguishes
     simulation time (inside the experiment span) from formatting. *)
  Repro_util.Telemetry.with_span "report.render" (fun () ->
      List.iter
        (fun table ->
          Buffer.add_string buf (Repro_util.Table.render table);
          Buffer.add_char buf '\n')
        tables)

let run_to_string ?scale ?jobs id =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "==== %s: %s ====\n" (Experiment.to_string id)
       (Experiment.describe id));
  render_into buf ?scale ?jobs id;
  Buffer.contents buf

let run_all_to_string ?scale ?jobs () =
  String.concat "\n"
    (List.map (fun id -> run_to_string ?scale ?jobs id) Experiment.all)

let experiments_markdown ?scale ?jobs () =
  let buf = Buffer.create 16384 in
  Buffer.add_string buf
    "# EXPERIMENTS — paper vs. measured\n\n\
     Every table and figure of the paper's evaluation, regenerated by\n\
     `dune exec bench/main.exe`. Absolute values come from synthetic\n\
     workloads calibrated to the paper's architecture-independent\n\
     characteristics (see DESIGN.md §5); the claims to check are the\n\
     *shapes*: orderings, ratios, insensitivities and sign reversals.\n\n";
  List.iter
    (fun id ->
      Buffer.add_string buf
        (Printf.sprintf "## %s — %s\n\n```\n"
           (String.capitalize_ascii (Experiment.to_string id))
           (Experiment.describe id));
      render_into buf ?scale ?jobs id;
      Buffer.add_string buf "```\n\n")
    Experiment.all;
  Buffer.contents buf
