(* Prints Extension_study's three tables at a small fixed budget. A
   runtest rule diffs the output against extension_tables.expected,
   so a change to how the tables are computed must leave every cell
   as it was. *)

module E = Repro_core.Extension_study

let insts = 60_000

let () =
  List.iter
    (fun t ->
      Repro_util.Table.print t;
      print_newline ())
    [ E.predictor_table ~insts
        ~benchmarks:[ "CoMD"; "botsspar"; "FT"; "swim"; "gobmk"; "xalancbmk" ]
        ();
      E.prefetch_table ~insts ~benchmarks:[ "CoMD"; "FT"; "gobmk"; "xalancbmk" ]
        ();
      E.predictability_table ~insts () ]
