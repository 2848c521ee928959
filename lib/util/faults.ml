exception Injected of string

let sites =
  [ "engine.task"; "trace.capture"; "cache.read"; "cache.decode";
    "cache.write"; "cache.write.torn"; "dispatch.spawn"; "dispatch.lease";
    "dispatch.result" ]

type rule = { rsite : string (* a member of [sites], or "all" *);
              prob : float; seed : int }

let active_ref = ref false
let rules : rule list ref = ref []
let spec_ref : string option ref = ref None

(* One shared draw counter: each draw consumes a fresh tick, so
   repeated probes at the same site see independent outcomes (a
   retried task re-draws its fault). *)
let draws = Atomic.make 0
let injected_total = Atomic.make 0

let injected () = Atomic.get injected_total
let active () = !active_ref
let spec () = !spec_ref

(* Per-entry diagnostics share the process-wide warn-once registry in
   {!Env}, so a daemon that reloads the same malformed spec many
   times still warns exactly once. *)
let warn_once entry fmt =
  Printf.ksprintf
    (fun msg ->
      Env.warn_once ("REPRO_FAULTS:" ^ entry)
        (Printf.sprintf
           "frontend-repro: ignoring invalid REPRO_FAULTS entry %S (%s); \
            format is site:prob:seed with site one of all %s, prob a float \
            clamped to 0..1, seed an integer"
           entry msg
           (String.concat " " sites)))
    fmt

let parse_entry entry =
  match String.split_on_char ':' entry with
  | [ site; prob; seed ] -> (
      let site = String.trim site in
      let known = site = "all" || List.mem site sites in
      match (float_of_string_opt prob, int_of_string_opt seed) with
      | _ when not known ->
          warn_once entry "unknown site %S" site;
          None
      | Some p, Some s ->
          let clamped = Float.max 0.0 (Float.min 1.0 p) in
          if clamped <> p then
            warn_once entry "probability %g clamped to %g" p clamped;
          Some { rsite = site; prob = clamped; seed = s }
      | None, _ ->
          warn_once entry "bad probability %S" prob;
          None
      | _, None ->
          warn_once entry "bad seed %S" seed;
          None)
  | _ ->
      warn_once entry "want exactly three ':'-separated fields";
      None

let configure s =
  (* The tick restarts with the configuration, so two identically
     configured runs in one process draw the same fault sequence. *)
  Atomic.set draws 0;
  match s with
  | None | Some "" ->
      rules := [];
      active_ref := false;
      spec_ref := None
  | Some spec ->
      let parsed =
        List.filter_map
          (fun e ->
            let e = String.trim e in
            if e = "" then None else parse_entry e)
          (String.split_on_char ',' spec)
      in
      rules := parsed;
      active_ref := parsed <> [];
      spec_ref :=
        if parsed = [] then None
        else
          Some
            (String.concat ","
               (List.map
                  (fun r -> Printf.sprintf "%s:%g:%d" r.rsite r.prob r.seed)
                  parsed))

let refresh_from_env () = configure (Sys.getenv_opt "REPRO_FAULTS")
let () = refresh_from_env ()

(* Deterministic uniform draw: the first 48 bits of an MD5 over
   (seed, site, tick). Digest on the hot path is acceptable — the
   path only exists in fault-torture runs. *)
let draw_fires r site =
  if r.prob <= 0.0 then false
  else if r.prob >= 1.0 then true
  else begin
    let n = Atomic.fetch_and_add draws 1 in
    let d = Digest.string (Printf.sprintf "%d\x00%s\x00%d" r.seed site n) in
    let u =
      Char.code d.[0]
      lor (Char.code d.[1] lsl 8)
      lor (Char.code d.[2] lsl 16)
      lor (Char.code d.[3] lsl 24)
      lor (Char.code d.[4] lsl 32)
      lor (Char.code d.[5] lsl 40)
    in
    float_of_int u < r.prob *. 281474976710656.0 (* 2^48 *)
  end

let fires site =
  !active_ref
  && List.exists
       (fun r ->
         (r.rsite = "all" || String.equal r.rsite site)
         && draw_fires r site)
       !rules
  && begin
       Atomic.incr injected_total;
       Telemetry.incr "faults.injected";
       true
     end

let inject site = if fires site then raise (Injected site)
