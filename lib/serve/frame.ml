let max_frame_default = 4 * 1024 * 1024

type error =
  | Eof
  | Truncated
  | Oversized of int
  | Crc_mismatch

let error_to_string = function
  | Eof -> "connection closed"
  | Truncated -> "connection closed mid-frame"
  | Oversized n -> Printf.sprintf "frame length %d exceeds the limit" n
  | Crc_mismatch -> "frame checksum mismatch"

let header_bytes = 8

let put_u32_le b off v =
  Bytes.set b off (Char.chr (v land 0xff));
  Bytes.set b (off + 1) (Char.chr ((v lsr 8) land 0xff));
  Bytes.set b (off + 2) (Char.chr ((v lsr 16) land 0xff));
  Bytes.set b (off + 3) (Char.chr ((v lsr 24) land 0xff))

let get_u32_le b off =
  Char.code (Bytes.get b off)
  lor (Char.code (Bytes.get b (off + 1)) lsl 8)
  lor (Char.code (Bytes.get b (off + 2)) lsl 16)
  lor (Char.code (Bytes.get b (off + 3)) lsl 24)

let write_all fd b pos len =
  let pos = ref pos and remaining = ref len in
  while !remaining > 0 do
    let n = Unix.write fd b !pos !remaining in
    pos := !pos + n;
    remaining := !remaining - n
  done

let write fd payload =
  let len = String.length payload in
  let b = Bytes.create (header_bytes + len) in
  put_u32_le b 0 len;
  put_u32_le b 4 (Persist.Crc32.string payload);
  Bytes.blit_string payload 0 b header_bytes len;
  (* One write for header + payload: a request fits a single syscall and
     the peer never observes a header without its payload en route. *)
  write_all fd b 0 (Bytes.length b)

(* Blocking read of exactly [len] bytes; distinguishes EOF at a frame
   boundary ([`Eof]) from EOF inside one ([`Truncated]). *)
let read_exactly fd b len =
  let got = ref 0 in
  let result = ref `Ok in
  while !result = `Ok && !got < len do
    match Unix.read fd b !got (len - !got) with
    | 0 -> result := if !got = 0 then `Eof else `Truncated
    | n -> got := !got + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  !result

let read fd =
  let header = Bytes.create header_bytes in
  match read_exactly fd header header_bytes with
  | `Eof -> Error Eof
  | `Truncated -> Error Truncated
  | `Ok ->
    let len = get_u32_le header 0 in
    let crc = get_u32_le header 4 in
    if len > max_frame_default then Error (Oversized len)
    else begin
      let payload = Bytes.create len in
      match read_exactly fd payload len with
      | `Eof | `Truncated -> Error Truncated
      | `Ok ->
        let payload = Bytes.unsafe_to_string payload in
        if Persist.Crc32.string payload <> crc then Error Crc_mismatch
        else Ok payload
    end

type decoder = {
  max_len : int;
  buf : Buffer.t;
  mutable consumed : int;  (** prefix of [buf] already handed out *)
  mutable failed : error option;
}

let decoder ?(max_len = max_frame_default) () =
  { max_len; buf = Buffer.create 256; consumed = 0; failed = None }

let feed d b n = Buffer.add_subbytes d.buf b 0 n

let buffered d = Buffer.length d.buf - d.consumed

let peek d = Buffer.sub d.buf d.consumed (buffered d)

(* Read in place: the buffer may hold most of a 4 MiB frame, and [next]
   runs each time a connection's reads drain. *)
let buffer_u32_le buf off =
  Char.code (Buffer.nth buf off)
  lor (Char.code (Buffer.nth buf (off + 1)) lsl 8)
  lor (Char.code (Buffer.nth buf (off + 2)) lsl 16)
  lor (Char.code (Buffer.nth buf (off + 3)) lsl 24)

let next d =
  match d.failed with
  | Some e -> Error e
  | None ->
    if buffered d < header_bytes then Ok None
    else begin
      let len = buffer_u32_le d.buf d.consumed in
      let crc = buffer_u32_le d.buf (d.consumed + 4) in
      if len > d.max_len || len < 0 then begin
        d.failed <- Some (Oversized len);
        Error (Oversized len)
      end
      else if buffered d < header_bytes + len then Ok None
      else begin
        let payload = Buffer.sub d.buf (d.consumed + header_bytes) len in
        d.consumed <- d.consumed + header_bytes + len;
        (* Drop the consumed prefix once it dominates the buffer, so a
           long-lived connection doesn't accumulate every past frame. *)
        if d.consumed > 4096 && d.consumed * 2 > Buffer.length d.buf then begin
          let rest =
            Buffer.sub d.buf d.consumed (Buffer.length d.buf - d.consumed)
          in
          Buffer.clear d.buf;
          Buffer.add_string d.buf rest;
          d.consumed <- 0
        end;
        if Persist.Crc32.string payload <> crc then begin
          d.failed <- Some Crc_mismatch;
          Error Crc_mismatch
        end
        else Ok (Some payload)
      end
    end
