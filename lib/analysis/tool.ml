let run trace f = Repro_isa.Trace.iter trace f

let iter_all iter observers =
  match observers with
  | [] -> ()
  | [ f ] -> iter f
  | fs ->
      let arr = Array.of_list fs in
      iter (fun inst ->
          for i = 0 to Array.length arr - 1 do
            arr.(i) inst
          done)

let run_all trace observers = iter_all (Repro_isa.Trace.iter trace) observers

module Source = struct
  type t =
    | Stream of Repro_isa.Trace.t
    | Packed of Repro_isa.Packed_trace.t

  let of_trace tr = Stream tr
  let of_packed pt = Packed pt

  let iter t f =
    match t with
    | Stream tr -> Repro_isa.Trace.iter tr f
    | Packed pt -> Repro_isa.Packed_trace.replay pt f
end

let run_all_source src observers = iter_all (Source.iter src) observers

module Split = struct
  type t = { mutable serial : int; mutable parallel : int }

  let create () = { serial = 0; parallel = 0 }

  let add t section n =
    match section with
    | Repro_isa.Section.Serial -> t.serial <- t.serial + n
    | Repro_isa.Section.Parallel -> t.parallel <- t.parallel + n

  let incr t section = add t section 1

  let get t = function
    | Repro_isa.Section.Serial -> t.serial
    | Repro_isa.Section.Parallel -> t.parallel

  let total t = t.serial + t.parallel
end
