(* RSRV1 length-framed messages over a file descriptor. One module,
   two users: the characterization daemon ([Server], where the peer is
   an arbitrary — possibly hostile — client) and the dispatch layer
   ([Dispatch], where the peer is a worker subprocess that can die at
   any instruction). Both need the same taxonomy: a clean EOF between
   frames ([Closed]), an EOF mid-frame ([Torn]), a declared length
   past the cap ([Oversized]) and a header that is not a frame at all
   ([Garbage]). *)

let magic = "RSRV1 "

(* A frame longer than this is a protocol error, not an allocation
   request: the declared length is checked before any payload buffer
   is allocated, so a hostile or corrupt header cannot OOM the
   daemon. *)
let max_frame = 32 * 1024 * 1024

(* The header is [magic ^ decimal length ^ '\n']; anything past this
   many bytes without a newline cannot be a valid header. *)
let max_header = String.length magic + 10

type error = Closed | Torn | Oversized of int | Garbage of string

let error_to_string = function
  | Closed -> "connection closed"
  | Torn -> "torn frame: EOF inside header or payload"
  | Oversized n -> Printf.sprintf "oversized frame: %d bytes declared" n
  | Garbage h ->
      Printf.sprintf "garbage frame header: %S" (String.sub h 0 (min 32 (String.length h)))

let rec really_read fd buf ofs len =
  if len = 0 then true
  else
    match Unix.read fd buf ofs len with
    | 0 -> false
    | n -> really_read fd buf (ofs + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> really_read fd buf ofs len
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
        (* An abruptly dead peer (kill -9, reset) reads as EOF: the
           caller treats it exactly like a torn frame. *)
        false

let read ?(max_bytes = max_frame) fd =
  let hdr = Buffer.create max_header in
  let one = Bytes.create 1 in
  let rec header () =
    if Buffer.length hdr > max_header then Error (Garbage (Buffer.contents hdr))
    else if not (really_read fd one 0 1) then
      if Buffer.length hdr = 0 then Error Closed else Error Torn
    else
      let c = Bytes.get one 0 in
      if c = '\n' then Ok (Buffer.contents hdr)
      else begin
        Buffer.add_char hdr c;
        header ()
      end
  in
  match header () with
  | Error e -> Error e
  | Ok line ->
      let mlen = String.length magic in
      if String.length line <= mlen || not (String.equal (String.sub line 0 mlen) magic)
      then Error (Garbage line)
      else begin
        match int_of_string_opt (String.sub line mlen (String.length line - mlen)) with
        | None -> Error (Garbage line)
        | Some len when len < 0 -> Error (Garbage line)
        | Some len when len > max_bytes -> Error (Oversized len)
        | Some len ->
            let payload = Bytes.create len in
            if really_read fd payload 0 len then Ok (Bytes.unsafe_to_string payload)
            else Error Torn
      end

let write fd payload =
  let msg =
    String.concat ""
      [ magic; string_of_int (String.length payload); "\n"; payload ]
  in
  let buf = Bytes.unsafe_of_string msg in
  let total = Bytes.length buf in
  let rec push ofs len =
    if len > 0 then
      match Unix.write fd buf ofs len with
      | n -> push (ofs + n) (len - n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> push ofs len
  in
  push 0 total;
  total
