type klass = Transient | Fatal

type t = { klass : klass; site : string; message : string; attempts : int }

exception Error of t

let v ?(site = "") ?(attempts = 1) klass message =
  { klass; site; message; attempts = max 1 attempts }

let capturable = function
  | Out_of_memory | Stack_overflow | Sys.Break -> false
  | _ -> true

let classify = function
  | Repro_util.Faults.Injected _ -> Transient
  | Sys_error _ -> Transient
  | Error f -> f.klass
  | _ -> Fatal

let of_exn ?attempts e =
  match e with
  | Error f -> (
      match attempts with Some a -> { f with attempts = max 1 a } | None -> f)
  | Repro_util.Faults.Injected site -> v ~site ?attempts Transient "injected fault"
  | Sys_error msg -> v ~site:"io" ?attempts Transient msg
  | e -> v ?attempts Fatal (Printexc.to_string e)

let klass_to_string = function
  | Transient -> "transient fault"
  | Fatal -> "fatal error"

let to_string f =
  Printf.sprintf "%s%s after %d attempt%s: %s" (klass_to_string f.klass)
    (if f.site = "" then "" else " at " ^ f.site)
    f.attempts
    (if f.attempts = 1 then "" else "s")
    f.message
