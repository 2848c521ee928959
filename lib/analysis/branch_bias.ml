module Inst = Repro_isa.Inst
module Section = Repro_isa.Section

type site = {
  mutable execs_serial : int;
  mutable taken_serial : int;
  mutable execs_parallel : int;
  mutable taken_parallel : int;
}

type t = {
  sites : (int, site) Hashtbl.t;
  taken : Tool.Split.t; (* dynamic taken conditionals *)
  taken_backward : Tool.Split.t;
  conds : Tool.Split.t;
}

let create () =
  { sites = Hashtbl.create 4096;
    taken = Tool.Split.create ();
    taken_backward = Tool.Split.create ();
    conds = Tool.Split.create () }

let feed t (i : Inst.t) =
  if i.kind = Inst.Cond_branch && not i.warmup then begin
    let s = i.section in
    Tool.Split.incr t.conds s;
    if i.taken then begin
      Tool.Split.incr t.taken s;
      if i.target < i.addr then Tool.Split.incr t.taken_backward s
    end;
    let site =
      match Hashtbl.find_opt t.sites i.addr with
      | Some site -> site
      | None ->
          let site =
            { execs_serial = 0; taken_serial = 0; execs_parallel = 0;
              taken_parallel = 0 }
          in
          Hashtbl.add t.sites i.addr site;
          site
    in
    match s with
    | Section.Serial ->
        site.execs_serial <- site.execs_serial + 1;
        if i.taken then site.taken_serial <- site.taken_serial + 1
    | Section.Parallel ->
        site.execs_parallel <- site.execs_parallel + 1;
        if i.taken then site.taken_parallel <- site.taken_parallel + 1
  end

let observer t = feed t

let site_counts scope site =
  match scope with
  | Branch_mix.Total ->
      (site.execs_serial + site.execs_parallel,
       site.taken_serial + site.taken_parallel)
  | Branch_mix.Only Section.Serial -> (site.execs_serial, site.taken_serial)
  | Branch_mix.Only Section.Parallel ->
      (site.execs_parallel, site.taken_parallel)

let deciles t scope =
  let buckets = Array.make 10 0.0 in
  let total = ref 0.0 in
  Hashtbl.iter
    (fun _ site ->
      let execs, taken = site_counts scope site in
      if execs > 0 then begin
        let rate = float_of_int taken /. float_of_int execs in
        let bucket = min 9 (int_of_float (rate *. 10.0)) in
        buckets.(bucket) <- buckets.(bucket) +. float_of_int execs;
        total := !total +. float_of_int execs
      end)
    t.sites;
  if !total = 0.0 then Array.make 10 nan
  else Array.map (fun b -> b /. !total) buckets

let biased_of_deciles d = if Float.is_nan d.(0) then nan else d.(0) +. d.(9)
let biased_fraction t scope = biased_of_deciles (deciles t scope)

let scope_get split scope =
  match scope with
  | Branch_mix.Total -> Tool.Split.total split
  | Branch_mix.Only s -> Tool.Split.get split s

let backward_taken_fraction t scope =
  let taken = scope_get t.taken scope in
  if taken = 0 then nan
  else float_of_int (scope_get t.taken_backward scope) /. float_of_int taken

let taken_fraction t scope =
  let conds = scope_get t.conds scope in
  if conds = 0 then nan
  else float_of_int (scope_get t.taken scope) /. float_of_int conds

let static_sites t = Hashtbl.length t.sites
