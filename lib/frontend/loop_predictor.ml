(* Entry layout (per the L-TAGE loop predictor): a partial tag, the
   learned trip count, the current iteration counter, a confidence
   counter, and the loop body direction (almost always "taken"). *)
type entry = {
  mutable tag : int; (* 0 = free *)
  mutable trip : int; (* learned iterations between exits *)
  mutable current : int;
  mutable conf : int;
  mutable dir : bool; (* direction taken while looping *)
}

type t = {
  entries : entry array;
  conf_threshold : int;
  tag_bits : int;
}

let create ?(entries = 64) ?(conf_threshold = 2) () =
  if not (Repro_util.Units.is_power_of_two entries) then
    invalid_arg "Loop_predictor.create: entries";
  { entries =
      Array.init entries (fun _ ->
          { tag = 0; trip = 0; current = 0; conf = 0; dir = true });
    conf_threshold;
    tag_bits = 14 }

let slot t pc = (pc lsr 1) land (Array.length t.entries - 1)

let tag_of t pc =
  let x = pc lsr 1 in
  let tag = (x lxor (x lsr 7) lxor (x lsr 15)) land ((1 lsl t.tag_bits) - 1) in
  if tag = 0 then 1 else tag

let predict t ~pc =
  let e = t.entries.(slot t pc) in
  if e.tag = tag_of t pc && e.conf >= t.conf_threshold && e.trip > 0 then
    (* Exit (opposite direction) exactly on the last iteration. *)
    if e.current = e.trip - 1 then Some (not e.dir) else Some e.dir
  else None

let update t ~pc ~taken =
  let e = t.entries.(slot t pc) in
  let tag = tag_of t pc in
  if e.tag = tag then begin
    if taken = e.dir then begin
      e.current <- e.current + 1;
      (* A run far beyond the learned trip count invalidates it. *)
      if e.trip > 0 && e.current > e.trip then begin
        e.conf <- 0;
        e.trip <- 0
      end
    end
    else begin
      (* Loop exit observed: compare the completed run length. *)
      let run = e.current + 1 in
      if e.trip = run then e.conf <- min 7 (e.conf + 1)
      else begin
        e.trip <- run;
        e.conf <- 0
      end;
      e.current <- 0
    end
  end
  else if taken then begin
    (* Allocate on a taken branch, evicting only unconfident entries. *)
    if e.tag = 0 || e.conf = 0 then begin
      e.tag <- tag;
      e.trip <- 0;
      e.current <- 1;
      e.conf <- 0;
      e.dir <- true
    end
  end

(* tag + trip + current + conf + dir: 14 + 14 + 14 + 3 + 1 bits *)
let storage_bits t = Array.length t.entries * (t.tag_bits + 14 + 14 + 3 + 1)

let combine t base =
  Predictor.make
    ~name:("L-" ^ base.Predictor.name)
    ~step:(fun pc taken ->
      let own = predict t ~pc in
      let fallback = base.Predictor.step pc taken in
      update t ~pc ~taken;
      match own with Some dir -> dir | None -> fallback)
    ~storage_bits:(storage_bits t + base.Predictor.storage_bits)
