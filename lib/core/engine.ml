type stats = {
  tasks_run : int;
  batches : int;
  max_domains : int;
  cache_hits : int;
  cache_misses : int;
  tasks_retried : int;
  tasks_failed : int;
}

let tasks_run = Atomic.make 0
let batches = Atomic.make 0
let max_domains = Atomic.make 1
let cache_hits = Atomic.make 0
let cache_misses = Atomic.make 0
let tasks_retried = Atomic.make 0
let tasks_failed = Atomic.make 0

let stats () =
  { tasks_run = Atomic.get tasks_run;
    batches = Atomic.get batches;
    max_domains = Atomic.get max_domains;
    cache_hits = Atomic.get cache_hits;
    cache_misses = Atomic.get cache_misses;
    tasks_retried = Atomic.get tasks_retried;
    tasks_failed = Atomic.get tasks_failed }

let reset_stats () =
  Atomic.set tasks_run 0;
  Atomic.set batches 0;
  Atomic.set max_domains 1;
  Atomic.set cache_hits 0;
  Atomic.set cache_misses 0;
  Atomic.set tasks_retried 0;
  Atomic.set tasks_failed 0

let note_cache_hit () = Atomic.incr cache_hits
let note_cache_miss () = Atomic.incr cache_misses

let rec record_max cell v =
  let cur = Atomic.get cell in
  if v > cur && not (Atomic.compare_and_set cell cur v) then record_max cell v

(* Pool sizes are clamped to 1..64: above ~64 domains the OCaml 5
   runtime's stop-the-world pauses dominate and the per-benchmark
   task count never exceeds the suite size anyway. Documented in the
   mli and README. *)
let clamp_jobs j = max 1 (min 64 j)

(* Malformed values warn once (via the shared Env registry) so a
   typo'd REPRO_JOBS=O8 is not an invisible serial run; out-of-range
   values warn once and clamp into the documented 1..64. *)
let env_jobs () =
  Repro_util.Env.int_clamped ~name:"REPRO_JOBS" ~min:1 ~max:64 ()

let default = ref None

let default_jobs () =
  match !default with
  | Some j -> j
  | None ->
      (match env_jobs () with
      | Some j -> j
      | None -> clamp_jobs (Domain.recommended_domain_count ()))

let set_default_jobs j = default := Some (clamp_jobs j)

module Telemetry = Repro_util.Telemetry
module Faults = Repro_util.Faults

(* ------------------------------------------------------------------ *)
(* Supervision policy *)

type policy = { retries : int; backoff_ms : float }

let clamp_retries r = max 0 (min 10 r)

let default_retries = ref 2
let set_retries r = default_retries := clamp_retries r
let retries () = !default_retries

let default_policy () = { retries = !default_retries; backoff_ms = 1.0 }

(* Exponential backoff between retry attempts: base, 2x, 4x ...
   capped at 100ms so a fault storm cannot stall a batch for long. *)
let backoff_wait policy attempt =
  let ms = policy.backoff_ms *. (2.0 ** float_of_int (attempt - 1)) in
  let s = Float.min 0.1 (ms /. 1000.0) in
  if s > 0.0 then Unix.sleepf s

(* One slot per task; filled exactly once by whichever worker claims
   the index, read only after every domain is joined. [Empty] can
   survive only in a fail-fast run that shut down early. *)
type 'b slot = Empty | Value of 'b | Failed of Failure.t * exn

(* Per-task instrumentation: an [engine.task] span (nested under the
   caller's open span, or the batch span via buffer absorption) plus
   a busy-time counter that feeds the utilization gauge. Pure
   pass-through when telemetry is disabled. *)
let timed_task task =
  if not (Telemetry.enabled ()) then task ()
  else
    Telemetry.with_span "engine.task" (fun () ->
        let t0 = Telemetry.now_ns () in
        Fun.protect
          ~finally:(fun () ->
            Telemetry.add "engine.busy_ns"
              (Int64.to_int (Int64.sub (Telemetry.now_ns ()) t0)))
          task)

(* Run one task under the policy: transient failures are retried
   with exponential backoff, everything else fails on first raise. *)
let run_task policy task =
  let attempts = policy.retries + 1 in
  let rec go attempt =
    match
      Faults.inject "engine.task";
      timed_task task
    with
    | v ->
        Atomic.incr tasks_run;
        Telemetry.incr "engine.tasks_ok";
        Value v
    | exception e ->
        (* Non-capturable exceptions are still parked in the slot so
           every domain gets joined; [run_many] re-raises them after
           the join, before any result is returned. *)
        if
          Failure.capturable e
          && Failure.classify e = Failure.Transient
          && attempt < attempts
        then begin
          Atomic.incr tasks_retried;
          Telemetry.incr "engine.tasks_retried";
          backoff_wait policy attempt;
          go (attempt + 1)
        end
        else begin
          Atomic.incr tasks_failed;
          Telemetry.incr "engine.tasks_failed";
          Failed (Failure.of_exn ~attempts:attempt e, e)
        end
  in
  go 1

let run_pool ~jobs ~policy ~fail_fast inputs =
  let n = Array.length inputs in
  let results = Array.make n Empty in
  let next = Atomic.make 0 in
  let stop = Atomic.make false in
  let worker () =
    let continue = ref true in
    while !continue do
      let i = Atomic.fetch_and_add next 1 in
      if i >= n || (fail_fast && Atomic.get stop) then continue := false
      else begin
        let r = run_task policy inputs.(i) in
        (match r with
        | Failed _ when fail_fast -> Atomic.set stop true
        | _ -> ());
        results.(i) <- r
      end
    done
  in
  let spawned_n = min jobs n - 1 in
  (* Each spawned domain records telemetry into its own per-domain
     buffer (no locks on the hot path) and parks the buffer in its
     slot as its last act; the joiner absorbs the buffers below,
     after every domain is joined. The export lives in a finalizer
     so a worker that unwinds (a non-capturable exception, or a bug
     in the slot machinery) still flushes its partial spans instead
     of losing the whole buffer. *)
  let tele = Array.make (max spawned_n 0) Telemetry.empty_buffer in
  let spawned =
    Array.init spawned_n (fun k ->
        Domain.spawn (fun () ->
            Fun.protect
              ~finally:(fun () ->
                if Telemetry.enabled () then tele.(k) <- Telemetry.export ())
              worker))
  in
  (* The calling domain is the pool's first worker. Joining may not
     raise here: a worker's exceptions are all captured in its slots. *)
  worker ();
  Array.iter Domain.join spawned;
  if Telemetry.enabled () then Array.iter Telemetry.absorb tele;
  results

(* Dispatch over the inline (0/1 task or jobs = 1) and pool paths,
   returning the raw slot array. *)
let run_many ~jobs ~policy ~fail_fast inputs =
  let n = Array.length inputs in
  if n = 0 then [||]
  else if jobs = 1 || n = 1 then begin
    let results = Array.make n Empty in
    (try
       for i = 0 to n - 1 do
         let r = run_task policy inputs.(i) in
         results.(i) <- r;
         match r with Failed _ when fail_fast -> raise Exit | _ -> ()
       done
     with Exit -> ());
    results
  end
  else begin
    Atomic.incr batches;
    let domains = min jobs n in
    record_max max_domains domains;
    if not (Telemetry.enabled ()) then run_pool ~jobs ~policy ~fail_fast inputs
    else
      Telemetry.with_span "engine.batch" (fun () ->
          let busy0 = Telemetry.counter "engine.busy_ns" in
          let t0 = Telemetry.now_ns () in
          let out = run_pool ~jobs ~policy ~fail_fast inputs in
          (* Utilization = busy-time / (elapsed x domains): 1.0 means
             every domain computed for the whole batch. *)
          let elapsed =
            Int64.to_float (Int64.sub (Telemetry.now_ns ()) t0)
          in
          let busy =
            float_of_int (Telemetry.counter "engine.busy_ns" - busy0)
          in
          if elapsed > 0.0 then
            Telemetry.set_gauge "engine.utilization"
              (busy /. (elapsed *. float_of_int domains));
          out)
  end

(* Fatal runtime conditions must keep unwinding no matter which map
   flavour ran the task; they were only parked in slots so the pool
   could be joined first. *)
let reraise_non_capturable results =
  Array.iter
    (function
      | Failed (_, e) when not (Failure.capturable e) -> raise e
      | Failed _ | Value _ | Empty -> ())
    results;
  results

let thunks f items = Array.of_list (List.map (fun x () -> f x) items)

let map ?jobs f items =
  let jobs = clamp_jobs (match jobs with Some j -> j | None -> default_jobs ()) in
  let results =
    reraise_non_capturable
      (run_many ~jobs ~policy:(default_policy ()) ~fail_fast:true
         (thunks f items))
  in
  (* Indices are claimed in increasing order, so an ascending scan
     meets the failure that triggered the shutdown before any slot
     abandoned because of it. The original exception is re-raised —
     supervision only adds retries underneath the old contract. *)
  Array.iter (function Failed (_, e) -> raise e | Value _ | Empty -> ()) results;
  Array.to_list
    (Array.map (function Value v -> v | Failed _ | Empty -> assert false)
       results)

let map_result ?jobs ?policy ?(fail_fast = false) f items =
  let jobs = clamp_jobs (match jobs with Some j -> j | None -> default_jobs ()) in
  let policy =
    match policy with
    | Some p -> { p with retries = clamp_retries p.retries }
    | None -> default_policy ()
  in
  let results =
    reraise_non_capturable (run_many ~jobs ~policy ~fail_fast (thunks f items))
  in
  Array.to_list
    (Array.map
       (function
         | Value v -> Ok v
         | Failed (fl, _) -> Error fl
         | Empty ->
             (* Only reachable in a fail-fast run: the task was never
                attempted because a sibling failed first. Transient by
                definition — rerunning it alone would work. *)
             Error
               (Failure.v ~site:"engine.task" Failure.Transient
                  "abandoned after a sibling task failed"))
       results)
