(* Differential tests for the fused branch-predictor [step].

   TAGE and the perceptron are driven lock-step against their
   pre-[step] selves ({!Ref_tage}, {!Ref_perceptron}), and the
   remaining packers are checked to keep [predict] pure. The I-cache,
   BTB, gshare and History references live in test_frontend_diff.ml. *)

module F = Repro_frontend

(* ------------------------------------------------------------------ *)
(* TAGE and perceptron against their pre-[step] selves ({!Ref_tage},
   {!Ref_perceptron}: separate predict/update, list-backed history).
   Streams loop over a few branch sites with per-site periodic
   patterns plus noise, so tagged tables both hit and allocate; they
   run past 640 branches so tage-big's longest history wraps. The
   real side also calls [predict] before every [step]: a [predict]
   that moved any state would desynchronize it from the reference. *)

let branch_stream_arb =
  QCheck.make
    QCheck.Gen.(
      let* sites = int_range 1 48 in
      let* n = int_range 700 2000 in
      let* draws = list_repeat n (pair (int_bound (sites - 1)) (int_bound 99)) in
      let visits = Array.make sites 0 in
      return
        (List.map
           (fun (site, noise) ->
             let k = visits.(site) in
             visits.(site) <- k + 1;
             let period = 2 + (site mod 7) in
             (0x4000 + (site * 52), (k mod period <> period - 1) <> (noise < 8)))
           draws))
    ~print:(fun ops -> Printf.sprintf "%d branches" (List.length ops))

let lockstep ~predict ~step ~ref_predict ~ref_update ops =
  List.for_all
    (fun (pc, taken) ->
      let expect = ref_predict pc in
      let p = predict pc in
      let s = step pc taken in
      ref_update pc taken;
      p = expect && s = expect)
    ops

let tage_geometries =
  [ ("tage-small", 12,
     [ { F.Tage.hist_len = 4; index_bits = 8; tag_bits = 9 };
       { F.Tage.hist_len = 16; index_bits = 8; tag_bits = 9 } ]);
    ("tage-big", 13,
     F.Tage.geometric_specs ~n_tables:12 ~min_hist:4 ~max_hist:640
       ~index_bits:9 ~tag_bits:11) ]

let prop_tage_matches_reference (name, base_index_bits, specs) =
  QCheck.Test.make ~name:(name ^ " == pre-step reference") ~count:25
    branch_stream_arb (fun ops ->
      let real = F.Tage.create ~base_index_bits specs in
      let ref_ =
        Ref_tage.create ~base_index_bits
          (List.map
             (fun { F.Tage.hist_len; index_bits; tag_bits } ->
               { Ref_tage.hist_len; index_bits; tag_bits })
             specs)
      in
      lockstep ops
        ~predict:(fun pc -> F.Tage.predict real ~pc)
        ~step:(fun pc taken -> F.Tage.step real ~pc ~taken)
        ~ref_predict:(fun pc -> Ref_tage.predict ref_ ~pc)
        ~ref_update:(fun pc taken -> Ref_tage.update ref_ ~pc ~taken))

let prop_perceptron_matches_reference (name, entries, history) =
  QCheck.Test.make ~name:(name ^ " == pre-step reference") ~count:40
    branch_stream_arb (fun ops ->
      let real = F.Perceptron.create ~entries ~history () in
      let ref_ = Ref_perceptron.create ~entries ~history () in
      lockstep ops
        ~predict:(fun pc -> F.Perceptron.predict real ~pc)
        ~step:(fun pc taken -> F.Perceptron.step real ~pc ~taken)
        ~ref_predict:(fun pc -> Ref_perceptron.predict ref_ ~pc)
        ~ref_update:(fun pc taken -> Ref_perceptron.update ref_ ~pc ~taken))

let perceptron_geometries =
  [ ("perceptron-small", 128, 15); ("perceptron-big", 512, 31);
    ("perceptron-62", 64, 62) ]

(* The [Predictor.step] contract for the packers without a reference
   here: [predict] is pure, so calling it before every [step] leaves
   every later prediction unchanged, and it agrees with [step]. *)
let pure_predict_cases =
  [ ("gshare",
     fun () ->
       let t = F.Gshare.create ~history_bits:13 in
       ((fun pc -> F.Gshare.predict t ~pc), fun pc taken -> F.Gshare.step t ~pc ~taken));
    ("tournament",
     fun () ->
       let t = F.Tournament.create ~addr_bits:10 ~history_bits:8 in
       ( (fun pc -> F.Tournament.predict t ~pc),
         fun pc taken -> F.Tournament.step t ~pc ~taken ));
    ("two-level",
     fun () ->
       let t = F.Two_level.create () in
       ( (fun pc -> F.Two_level.predict t ~pc),
         fun pc taken -> F.Two_level.step t ~pc ~taken )) ]

let prop_predict_is_pure (name, make) =
  QCheck.Test.make ~name:(name ^ ": predict is pure, step predicts")
    ~count:30 branch_stream_arb (fun ops ->
      let predict, step = make () and _, bare = make () in
      List.for_all
        (fun (pc, taken) ->
          let p = predict pc in
          let s = step pc taken in
          p = s && s = bare pc taken)
        ops)

let () =
  Alcotest.run "predictor-diff"
    [ ("tage", Qseed.all (List.map prop_tage_matches_reference tage_geometries));
      ("perceptron",
       Qseed.all
         (List.map prop_perceptron_matches_reference perceptron_geometries));
      ("step", Qseed.all (List.map prop_predict_is_pure pure_predict_cases)) ]
