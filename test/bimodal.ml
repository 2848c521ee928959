type t = { table : Repro_frontend.Counter.t }

(* Branch PCs are byte addresses; drop the low bit only (x86
   instructions are unaligned, so low bits carry information). *)
let index pc = pc lsr 1

let create ~index_bits =
  if index_bits < 1 || index_bits > 24 then invalid_arg "Bimodal.create";
  { table = Repro_frontend.Counter.create ~bits:2 ~entries:(1 lsl index_bits) }

let predict t ~pc = Repro_frontend.Counter.is_taken t.table (index pc)
let update t ~pc ~taken = Repro_frontend.Counter.update t.table (index pc) taken
let storage_bits t = Repro_frontend.Counter.storage_bits t.table

let pack t =
  Repro_frontend.Predictor.make
    ~name:(Printf.sprintf "bimodal-%d" (Repro_frontend.Counter.entries t.table))
    ~step:(fun pc taken ->
      let pred = predict t ~pc in
      update t ~pc ~taken;
      pred)
    ~storage_bits:(storage_bits t)
