module Telemetry = Repro_util.Telemetry
module Faults = Repro_util.Faults

(* "5": a characterization's footprint became a four-int
   [Footprint.summary] (it was the per-address table), so a v4 "charz"
   payload must never be unmarshalled at the new type. *)
let version = "5"

let magic = "REPROCACHE2\n"
let suffix = ".bin"

(* In-flight temp files carry a suffix that [cache_files] can never
   match: with the old ".bin" suffix, [entries ()] over-counted and a
   concurrent [clear ()] could delete a temp file out from under the
   [store] about to rename it, silently losing the entry. *)
let tmp_suffix = ".tmp"

(* Undecodable entries are renamed aside with this suffix instead of
   being silently shadowed: the evidence survives for inspection and
   a half-written file can never be re-read as data. *)
let bad_suffix = ".bad"

(* Trailer after the payload: proves the write reached end-of-file.
   The header digest alone cannot distinguish "entry being read while
   short" from "torn write that will never grow"; a missing trailer
   settles it. *)
let trailer_magic = "\nREPROEND"

let enabled_ref = ref (Repro_util.Env.flag ~name:"REPRO_CACHE" ~default:true)

let enabled () = !enabled_ref
let set_enabled b = enabled_ref := b

let dir_ref =
  ref (match Sys.getenv_opt "REPRO_CACHE_DIR" with
      | Some d when d <> "" -> d
      | Some _ | None -> "_cache")

let dir () = !dir_ref
let set_dir d = dir_ref := d

type key = { file : string }

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '.' -> c
      | _ -> '_')
    name

(* Digesting a whole profile's text dominates a key, and a hot report
   mints ~260 keys. The digest is memoized by name; a hit needs the
   very same (immutable) profile value, so another profile under that
   name is digested afresh and replaces the entry. *)
let digest_lock = Mutex.create ()
let digests = Hashtbl.create 64

let profile_digest (profile : Repro_workload.Profile.t) =
  let with_digests f = Mutex.protect digest_lock (fun () -> f digests) in
  match with_digests (fun h -> Hashtbl.find_opt h profile.name) with
  | Some (p, d) when p == profile -> d
  | _ ->
      let text = Repro_workload.Profile_io.to_string profile in
      let d = Digest.to_hex (Digest.string text) in
      with_digests (fun h -> Hashtbl.replace h profile.name (profile, d));
      d

let key ~profile ~scale ~kind =
  let fingerprint =
    Printf.sprintf "v%s|%s|%h|%s" version (profile_digest profile) scale kind
  in
  { file =
      Printf.sprintf "%s-%s-%s%s" kind
        (sanitize (profile : Repro_workload.Profile.t).name)
        (Digest.to_hex (Digest.string fingerprint))
        suffix }

let path k = Filename.concat (dir ()) k.file

(* Serialized entry: magic, hex digest of the payload, payload, then
   a trailer repeating the digest. The digest turns truncation and
   bit-rot into quarantined misses; the trailer catches torn writes
   that stopped anywhere short of the last byte. *)

let encode v =
  let payload = Marshal.to_string v [] in
  let hex = Digest.to_hex (Digest.string payload) in
  magic ^ hex ^ "\n" ^ payload ^ trailer_magic ^ hex

(* Marshal's deserializer tags its own errors; any other [Failure]
   raised while decoding is not a corrupt entry and must propagate
   (it used to be swallowed as a miss). *)
let is_marshal_failure msg =
  String.starts_with ~prefix:"input_value" msg
  || String.starts_with ~prefix:"Marshal" msg

(* Structural validity of an encoded entry — magic, header digest,
   trailer, digest over the payload — without touching Marshal.
   Shared between [decode] (which goes on to deserialize) and the
   wire-install path (which must verify bytes it will never
   deserialize itself). *)
let payload_of_encoded s =
  let mlen = String.length magic in
  let tlen = String.length trailer_magic + 32 in
  (* 32 hex chars + '\n' after the magic, trailer at the end. *)
  if String.length s < mlen + 33 + tlen then None
  else if not (String.equal (String.sub s 0 mlen) magic) then None
  else if s.[mlen + 32] <> '\n' then None
  else
    let hex = String.sub s mlen 32 in
    let plen = String.length s - mlen - 33 - tlen in
    let payload = String.sub s (mlen + 33) plen in
    let trailer = String.sub s (mlen + 33 + plen) tlen in
    if not (String.equal trailer (trailer_magic ^ hex)) then None
    else if not (String.equal hex (Digest.to_hex (Digest.string payload)))
    then None
    else Some payload

let verify_encoded s = Option.is_some (payload_of_encoded s)

let decode s =
  match payload_of_encoded s with
  | None -> None
  | Some payload -> (
      match Marshal.from_string payload 0 with
      | v -> Some v
      | exception Stdlib.Failure msg when is_marshal_failure msg ->
          (* Truncated or corrupt payload. Any other exception —
             fatal runtime faults, a [Failure] raised by code the
             deserializer triggered — is a real error and must not
             masquerade as a miss. *)
          None)

(* Entry-traffic recorder for the remote-dispatch wire path: while a
   recording is active, the basename of every entry this process
   stores or hits is collected, so a remote worker knows exactly
   which artifacts a task produced (or re-used) and must ship back.
   Single-domain use only — the worker process runs its task body on
   one domain, which is the only place recordings happen. *)
let recorder : string list ref option ref = ref None

let record file =
  match !recorder with
  | None -> ()
  | Some acc -> if not (List.mem file !acc) then acc := file :: !acc

let with_recording f =
  let acc = ref [] in
  let saved = !recorder in
  recorder := Some acc;
  let v = Fun.protect ~finally:(fun () -> recorder := saved) f in
  (v, List.rev !acc)

(* Move a corrupt entry aside rather than deleting it or, worse,
   leaving it to be re-read: the quarantined file keeps the evidence
   and can never match [suffix] again. *)
let quarantine k =
  (try Sys.rename (path k) (path k ^ bad_suffix) with Sys_error _ -> ());
  Telemetry.incr "cache.quarantined"

let find k =
  if not (enabled ()) then None
  else
    Telemetry.with_span "cache.find" (fun () ->
        if Faults.fires "cache.read" then
          (* Simulated read I/O error: behaves exactly like the real
             thing below — an ordinary miss, the entry untouched. *)
          None
        else
          match In_channel.with_open_bin (path k) In_channel.input_all with
          | s -> (
              Telemetry.add "cache.read_bytes" (String.length s);
              let decoded =
                if Faults.fires "cache.decode" then None else decode s
              in
              match decoded with
              | Some v ->
                  record k.file;
                  Some v
              | None ->
                  quarantine k;
                  None)
          | exception Sys_error _ ->
              (* Missing or unreadable file is an ordinary miss. Fatal
                 runtime exceptions (Out_of_memory, Stack_overflow) are
                 deliberately not caught. *)
              None)

let rec mkdir_p d =
  if d = "" || d = "." || d = "/" || Sys.file_exists d then ()
  else begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

let store k v =
  if enabled () then
    Telemetry.with_span "cache.store" (fun () ->
        (* Only Sys_error (read-only disk, missing directory, rename
           races) is best-effort-swallowed; everything else — fatal
           runtime exceptions, Marshal refusing the value — reaches
           the caller. *)
        try
          mkdir_p (dir ());
          let encoded = encode v in
          if Faults.fires "cache.write" then
            (* Simulated write I/O error: the store is dropped, as a
               full disk would drop it. *)
            ()
          else if Faults.fires "cache.write.torn" then begin
            (* Simulated crash mid-write: a prefix of the entry lands
               at the final path, bypassing the temp-file rename. The
               next [find] must quarantine it, never decode it. *)
            Out_channel.with_open_bin (path k) (fun oc ->
                Out_channel.output_string oc
                  (String.sub encoded 0 (String.length encoded / 2)));
            Telemetry.incr "cache.torn_writes"
          end
          else begin
            (* temp_file opens exclusively, so concurrent writers (other
               domains or other processes) never interleave; the final
               rename is atomic and last-writer-wins with equal bytes.
               The .tmp suffix keeps the in-flight file invisible to
               [cache_files], so a concurrent [clear] cannot delete it
               before the rename. *)
            let tmp, oc =
              Filename.open_temp_file ~mode:[ Open_binary ] ~temp_dir:(dir ())
                "tmp-cache" tmp_suffix
            in
            try
              Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
                  output_string oc encoded);
              Telemetry.add "cache.write_bytes" (String.length encoded);
              Sys.rename tmp (path k);
              record k.file
            with e ->
              (try Sys.remove tmp with Sys_error _ -> ());
              raise e
          end
        with Sys_error _ -> ())

let memoize k compute =
  if not (enabled ()) then compute ()
  else
    match find k with
    | Some v ->
        Engine.note_cache_hit ();
        Telemetry.incr "cache.hits";
        v
    | None ->
        Engine.note_cache_miss ();
        Telemetry.incr "cache.misses";
        let v = compute () in
        store k v;
        v

(* A wire name is trusted only if it carries the finished-entry
   suffix and contains no path separator, no ".." run, and no
   control byte: a peer can then never name a temp file, a
   quarantined file, or anything outside the cache directory. (Entry
   basenames legitimately contain ':' — kinds like "row.fig5:<tag>"
   embed it — so this is a denylist of the dangerous characters, not
   the [sanitize] round-trip used when minting keys.) *)
let wire_name_ok name =
  let n = String.length name in
  Filename.check_suffix name suffix
  && n > String.length suffix
  && (try
        for i = 0 to n - 1 do
          let c = name.[i] in
          if c = '/' || c = '\\' || c < ' ' || c = '\x7f' then raise Exit;
          if c = '.' && i + 1 < n && name.[i + 1] = '.' then raise Exit
        done;
        true
      with Exit -> false)

let read_raw name =
  if not (wire_name_ok name) then None
  else
    match
      In_channel.with_open_bin
        (Filename.concat (dir ()) name)
        In_channel.input_all
    with
    | s -> Some s
    | exception Sys_error _ -> None

let install_raw ~name bytes =
  if not (wire_name_ok name) then begin
    Telemetry.incr "cache.wire_rejects";
    false
  end
  else if not (verify_encoded bytes) then begin
    (* Corrupt or torn on the wire: keep the evidence under the same
       [.bad] discipline as on-disk quarantine, never install. *)
    (try
       mkdir_p (dir ());
       Out_channel.with_open_bin
         (Filename.concat (dir ()) (name ^ bad_suffix))
         (fun oc -> Out_channel.output_string oc bytes)
     with Sys_error _ -> ());
    Telemetry.incr "cache.quarantined";
    Telemetry.incr "cache.wire_rejects";
    false
  end
  else begin
    match
      mkdir_p (dir ());
      let tmp, oc =
        Filename.open_temp_file ~mode:[ Open_binary ] ~temp_dir:(dir ())
          "tmp-cache" tmp_suffix
      in
      (try
         Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
             output_string oc bytes);
         Sys.rename tmp (Filename.concat (dir ()) name)
       with e ->
         (try Sys.remove tmp with Sys_error _ -> ());
         raise e);
      Telemetry.add "cache.write_bytes" (String.length bytes)
    with
    | () -> true
    | exception Sys_error _ -> false
  end

(* Only finished entries (".bin"): in-flight ".tmp" files are never
   listed, counted or cleared. *)
let cache_files () =
  match Sys.readdir (dir ()) with
  | files ->
      List.filter (fun f -> Filename.check_suffix f suffix)
        (Array.to_list files)
  | exception Sys_error _ -> []

let quarantined_files () =
  match Sys.readdir (dir ()) with
  | files ->
      List.filter (fun f -> Filename.check_suffix f bad_suffix)
        (Array.to_list files)
  | exception Sys_error _ -> []

let clear () =
  List.iter
    (fun f ->
      try Sys.remove (Filename.concat (dir ()) f) with Sys_error _ -> ())
    (cache_files () @ quarantined_files ())

let entries () = List.length (cache_files ())
let quarantined () = List.length (quarantined_files ())
