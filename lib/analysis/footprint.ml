module Inst = Repro_isa.Inst
module Section = Repro_isa.Section

type cell = {
  size : int;
  mutable serial : int; (* executions in serial sections *)
  mutable parallel : int;
  mutable warm : int; (* warmup executions: static footprint only *)
}

type t = { cells : (int, cell) Hashtbl.t }

let create () = { cells = Hashtbl.create (1 lsl 16) }

let feed t (i : Inst.t) =
  let cell =
    match Hashtbl.find_opt t.cells i.addr with
    | Some c -> c
    | None ->
        let c = { size = i.size; serial = 0; parallel = 0; warm = 0 } in
        Hashtbl.add t.cells i.addr c;
        c
  in
  if i.warmup then cell.warm <- cell.warm + 1
  else
    match i.section with
    | Section.Serial -> cell.serial <- cell.serial + 1
    | Section.Parallel -> cell.parallel <- cell.parallel + 1

let observer t = feed t

let count_in_scope scope cell =
  match scope with
  | Branch_mix.Total -> cell.serial + cell.parallel
  | Branch_mix.Only Section.Serial -> cell.serial
  | Branch_mix.Only Section.Parallel -> cell.parallel

(* Static footprint includes warmup-touched code (the code exists in
   the image and was executed), but only for the Total scope; section
   scopes reflect code executed inside that section. *)
let static_bytes t scope =
  Hashtbl.fold
    (fun _ cell acc ->
      let n =
        match scope with
        | Branch_mix.Total -> count_in_scope scope cell + cell.warm
        | Branch_mix.Only _ -> count_in_scope scope cell
      in
      if n > 0 then acc + cell.size else acc)
    t.cells 0

let static_insts t scope =
  Hashtbl.fold
    (fun _ cell acc ->
      let n =
        match scope with
        | Branch_mix.Total -> count_in_scope scope cell + cell.warm
        | Branch_mix.Only _ -> count_in_scope scope cell
      in
      if n > 0 then acc + 1 else acc)
    t.cells 0

let dynamic_bytes t scope ~coverage =
  let cells =
    Hashtbl.fold
      (fun _ cell acc ->
        let n = count_in_scope scope cell in
        if n > 0 then (cell.size, float_of_int n) :: acc else acc)
      t.cells []
  in
  Repro_util.Stats.bytes_for_coverage cells ~coverage

type summary = {
  static_total : int;
  hot_total : int;
  hot_serial : int;
  hot_parallel : int;
}

let coverage = 0.99

let summarize t =
  let hot scope = dynamic_bytes t scope ~coverage in
  { static_total = static_bytes t Branch_mix.Total;
    hot_total = hot Branch_mix.Total;
    hot_serial = hot (Branch_mix.Only Section.Serial);
    hot_parallel = hot (Branch_mix.Only Section.Parallel) }

let hot_bytes s = function
  | Branch_mix.Total -> s.hot_total
  | Branch_mix.Only Section.Serial -> s.hot_serial
  | Branch_mix.Only Section.Parallel -> s.hot_parallel
