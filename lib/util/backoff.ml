(* Jittered exponential backoff for the server client's [retry_for]
   connect loop. Delays grow geometrically, saturate at a cap, carry
   deterministic seed-driven jitter (so two clients started in the
   same instant do not hammer the listener in lockstep, yet a fixed
   seed replays the exact delay sequence), and [reset] snaps back to
   the base after a success. *)

type t = {
  base_ms : float;
  max_ms : float;
  jitter : float;
  seed : int;
  mutable attempt : int;
}

let create ?(base_ms = 50.0) ?(max_ms = 5_000.0) ?(jitter = 0.5) ?(seed = 0) ()
    =
  let base_ms = Float.max 0.0 base_ms in
  { base_ms;
    max_ms = Float.max base_ms max_ms;
    jitter = Float.max 0.0 (Float.min 1.0 jitter);
    seed;
    attempt = 0 }

let attempts b = b.attempt
let reset b = b.attempt <- 0

(* Deterministic uniform draw in [0,1): the first 48 bits of an MD5
   over (seed, attempt) — the same construction as {!Faults}, for the
   same reason: replayable without threading an RNG through every
   caller. *)
let unit_draw b =
  let d = Digest.string (Printf.sprintf "backoff\x00%d\x00%d" b.seed b.attempt) in
  let u =
    Char.code d.[0]
    lor (Char.code d.[1] lsl 8)
    lor (Char.code d.[2] lsl 16)
    lor (Char.code d.[3] lsl 24)
    lor (Char.code d.[4] lsl 32)
    lor (Char.code d.[5] lsl 40)
  in
  float_of_int u /. 281474976710656.0 (* 2^48 *)

let delay_ms b =
  let raw = b.base_ms *. Float.pow 2.0 (float_of_int b.attempt) in
  let capped = Float.min b.max_ms raw in
  (* Jitter scales the delay into [1-j, 1+j] (clamped below at the
     base so a small capped delay cannot jitter to ~0 and spin). *)
  let factor = 1.0 -. b.jitter +. (2.0 *. b.jitter *. unit_draw b) in
  let d = Float.min b.max_ms (Float.max b.base_ms (capped *. factor)) in
  b.attempt <- b.attempt + 1;
  d

let sleep b = Unix.sleepf (delay_ms b /. 1000.0)
