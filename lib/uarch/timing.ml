module A = Repro_analysis

type rates = { bp_mpki : float; btb_mpki : float; icache_mpki : float }

type measurement = {
  serial : rates;
  parallel : rates;
  total : rates;
  serial_insts : int;
  parallel_insts : int;
}

let zero_if_nan x = if Float.is_nan x then 0.0 else x

(* The distinct [key]s of [cfgs] in first-appearance order, one
   representative config each, and every config's index among them. *)
let distinct key cfgs =
  let seen = ref [] in
  let slot c =
    let k = key c in
    match List.assoc_opt k !seen with
    | Some (i, _) -> i
    | None ->
        let i = List.length !seen in
        seen := (k, (i, c)) :: !seen;
        i
  in
  let slots = Array.of_list (List.map slot cfgs) in
  (Array.of_list (List.rev_map (fun (_, (_, c)) -> c) !seen), slots)

let btb_geometry (c : Frontend_config.t) = (c.btb_entries, c.btb_assoc)

let icache_config (c : Frontend_config.t) =
  A.Icache_sweep.cfg ~policy:c.icache_repl
    (c.icache_bytes, c.icache_line, c.icache_assoc)

let measure_many cfgs src =
  let bp_cfgs, bp_of =
    distinct (fun (c : Frontend_config.t) -> (c.bp, c.bp_loop)) cfgs
  in
  let btb_cfgs, btb_of = distinct btb_geometry cfgs in
  let ic_cfgs, ic_of = distinct icache_config cfgs in
  let bps =
    A.Bp_sweep.run src
      (Array.map
         (fun c ->
           A.Bp_sweep.of_spec ~name:(Frontend_config.name c)
             (Frontend_config.bp_spec c))
         bp_cfgs)
  in
  let btbs = A.Btb_sweep.run src (Array.map btb_geometry btb_cfgs) in
  let ics = A.Icache_sweep.run src (Array.map icache_config ic_cfgs) in
  List.mapi
    (fun k _ ->
      let bp = bps.(bp_of.(k))
      and btb = btbs.(btb_of.(k))
      and ic = ics.(ic_of.(k)) in
      let rates scope =
        { bp_mpki = zero_if_nan (A.Bp_sweep.mpki bp scope);
          btb_mpki = zero_if_nan (A.Btb_sweep.mpki btb scope);
          icache_mpki = zero_if_nan (A.Icache_sweep.mpki ic scope) }
      in
      let serial_scope = A.Branch_mix.Only Repro_isa.Section.Serial in
      let parallel_scope = A.Branch_mix.Only Repro_isa.Section.Parallel in
      { serial = rates serial_scope;
        parallel = rates parallel_scope;
        total = rates A.Branch_mix.Total;
        serial_insts = A.Bp_sweep.insts bp serial_scope;
        parallel_insts = A.Bp_sweep.insts bp parallel_scope })
    cfgs

let base_cpi = 0.62
let bp_penalty = 12.0
let btb_penalty = 7.0
let icache_penalty = 16.0

let cpi ~data_stall rates =
  base_cpi +. data_stall
  +. (rates.bp_mpki /. 1000.0 *. bp_penalty)
  +. (rates.btb_mpki /. 1000.0 *. btb_penalty)
  +. (rates.icache_mpki /. 1000.0 *. icache_penalty)
