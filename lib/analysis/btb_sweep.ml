module Inst = Repro_isa.Inst
module F = Repro_frontend

(* Miss matrix layout: config-major, 2 cells per config — the
   section (serial = 0, parallel = 1). *)
let cells = 2

type t = {
  entries : int;
  assoc : int;
  insts_s : int;
  insts_p : int;
  taken_s : int;
  taken_p : int;
  miss : int array; (* the 2 cells of this config *)
}

let section_bit (i : Inst.t) =
  match i.section with Repro_isa.Section.Serial -> 0 | Repro_isa.Section.Parallel -> 1

let run src configs =
  Repro_util.Telemetry.with_span "sweep.fused" @@ fun () ->
  let n = Array.length configs in
  let btbs =
    Array.map (fun (entries, assoc) -> F.Btb.create ~entries ~assoc) configs
  in
  (* All configs with the same set count decompose pc into the same
     (set, tag) pair; compute it once per distinct geometry. *)
  let geos = ref [] in
  let geo =
    Array.map
      (fun b ->
        let sets = F.Btb.sets b in
        match List.assoc_opt sets !geos with
        | Some g -> g
        | None ->
            let g = List.length !geos in
            geos := (sets, g) :: !geos;
            g)
      btbs
  in
  let ngeo = List.length !geos in
  let geo_mask = Array.make ngeo 0 and geo_shift = Array.make ngeo 0 in
  List.iter
    (fun (sets, g) ->
      geo_mask.(g) <- sets - 1;
      geo_shift.(g) <- Repro_util.Units.log2 sets)
    !geos;
  let gset = Array.make ngeo 0 and gtag = Array.make ngeo 0 in
  let miss = Array.make (n * cells) 0 in
  let insts_s = ref 0 and insts_p = ref 0 in
  let taken_s = ref 0 and taken_p = ref 0 in
  (* One fetch redirect (taken non-syscall/non-return branch), all
     configs. Mirrors [Btb_sim.feed_redirect]. *)
  let feed_redirect (i : Inst.t) =
    let pcx = i.addr lsr 1 in
    for g = 0 to ngeo - 1 do
      Array.unsafe_set gset g (pcx land Array.unsafe_get geo_mask g);
      Array.unsafe_set gtag g (pcx lsr Array.unsafe_get geo_shift g)
    done;
    if i.warmup then
      for k = 0 to n - 1 do
        let g = Array.unsafe_get geo k in
        F.Btb.insert_at
          (Array.unsafe_get btbs k)
          ~set:(Array.unsafe_get gset g) ~tag:(Array.unsafe_get gtag g)
          ~target:i.target
      done
    else begin
      let sec = section_bit i in
      (if sec = 0 then incr taken_s else incr taken_p);
      for k = 0 to n - 1 do
        let g = Array.unsafe_get geo k in
        let set = Array.unsafe_get gset g and tag = Array.unsafe_get gtag g in
        let b = Array.unsafe_get btbs k in
        (match F.Btb.lookup_at b ~set ~tag with
        | Some target when target = i.target -> ()
        | Some _ | None ->
            let j = (k * cells) + sec in
            Array.unsafe_set miss j (Array.unsafe_get miss j + 1));
        F.Btb.insert_at b ~set ~tag ~target:i.target
      done
    end
  in
  (match src with
  | Tool.Source.Packed pt ->
      let serial, parallel = Repro_isa.Packed_trace.counted pt in
      insts_s := serial;
      insts_p := parallel;
      Repro_isa.Packed_trace.replay_redirects pt feed_redirect
  | Tool.Source.Stream _ ->
      Tool.run_all_source src
        [ (fun (i : Inst.t) ->
            let redirect =
              i.taken && Inst.is_branch i && i.kind <> Inst.Syscall
              && i.kind <> Inst.Return
            in
            if i.warmup then begin
              if redirect then feed_redirect i
            end
            else begin
              (if section_bit i = 0 then incr insts_s else incr insts_p);
              if redirect then feed_redirect i
            end) ]);
  Array.mapi
    (fun k (entries, assoc) ->
      { entries;
        assoc;
        insts_s = !insts_s;
        insts_p = !insts_p;
        taken_s = !taken_s;
        taken_p = !taken_p;
        miss = Array.sub miss (k * cells) cells })
    configs

let entries t = t.entries
let assoc t = t.assoc

let scope_pair s p = function
  | Branch_mix.Total -> s + p
  | Branch_mix.Only Repro_isa.Section.Serial -> s
  | Branch_mix.Only Repro_isa.Section.Parallel -> p

let insts t scope = scope_pair t.insts_s t.insts_p scope
let taken_branches t scope = scope_pair t.taken_s t.taken_p scope
let misses t scope = scope_pair t.miss.(0) t.miss.(1) scope

let mpki t scope =
  let n = insts t scope in
  if n = 0 then nan
  else float_of_int (misses t scope) /. (float_of_int n /. 1000.0)

let miss_rate t scope =
  let n = taken_branches t scope in
  if n = 0 then nan else float_of_int (misses t scope) /. float_of_int n
