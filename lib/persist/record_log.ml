(* Append-only record log with per-record CRC32 and crash recovery.

   On-disk layout:

     magic   "SRLG1\n"                        (6 bytes)
     frame*  u32-LE payload length
             u32-LE CRC32 of payload
             payload (compact JSON)

   The first frame is always a header record
   {"schema":..,"version":..,"git_commit":..,"meta":{..}} so a reader
   can refuse logs written by an incompatible schema.  Recovery policy
   is prefix-keeping: scan frames until the first length/CRC/parse
   failure, keep everything before it, discard the rest.  Writers use
   raw Unix file descriptors (not out_channels) so the byte offset of
   every frame is known exactly and a failed append can be truncated
   back to a record boundary. *)

let magic = "SRLG1\n"

let flush_timer = Obs.Histogram.timer "persist.flush"
let replay_timer = Obs.Histogram.timer "persist.replay"
let c_records_written = Runtime.Telemetry.counter "persist.records.written"
let c_records_recovered = Runtime.Telemetry.counter "persist.records.recovered"
let c_bytes_discarded = Runtime.Telemetry.counter "persist.bytes.discarded"

type header = {
  schema : string;
  version : int;
  git_commit : string;
  meta : (string * Json.t) list;
}

let header_to_json h =
  Json.Obj
    [
      ("schema", Json.String h.schema);
      ("version", Json.Int h.version);
      ("git_commit", Json.String h.git_commit);
      ("meta", Json.Obj h.meta);
    ]

let header_of_json j =
  match (Json.string_field j "schema", Json.int_field j "version") with
  | Some schema, Some version ->
    let git_commit =
      Option.value (Json.string_field j "git_commit") ~default:"unknown"
    in
    let meta =
      match Json.member "meta" j with Some (Json.Obj kv) -> kv | _ -> []
    in
    Some { schema; version; git_commit; meta }
  | _ -> None

(* ----- frame encoding ----- *)

let put_u32_le b v =
  Bytes.set b 0 (Char.chr (v land 0xFF));
  Bytes.set b 1 (Char.chr ((v lsr 8) land 0xFF));
  Bytes.set b 2 (Char.chr ((v lsr 16) land 0xFF));
  Bytes.set b 3 (Char.chr ((v lsr 24) land 0xFF))

let get_u32_le s pos =
  Char.code s.[pos]
  lor (Char.code s.[pos + 1] lsl 8)
  lor (Char.code s.[pos + 2] lsl 16)
  lor (Char.code s.[pos + 3] lsl 24)

let frame payload =
  let len = String.length payload in
  let b = Bytes.create (8 + len) in
  let hdr = Bytes.create 4 in
  put_u32_le hdr len;
  Bytes.blit hdr 0 b 0 4;
  put_u32_le hdr (Crc32.string payload);
  Bytes.blit hdr 0 b 4 4;
  Bytes.blit_string payload 0 b 8 len;
  Bytes.unsafe_to_string b

(* ----- reading / recovery ----- *)

type recovery = {
  header : header;
  records : Json.t list;
  recovered : int;
  discarded_bytes : int;
  valid_end : int;  (* byte offset just past the last valid frame *)
}

(* One valid frame: its payload's span in the log's bytes and, when the
   payload is an object, each member's name and value span ([] for any
   other JSON value). *)
type frame = { pos : int; len : int; members : (string * int * int) list }

(* A log as opened: its bytes and where its data records lie in them. *)
type spans = {
  s_header : header;
  bytes : string;
  frames : frame list;  (* each data record's, in order *)
  s_valid_end : int;
}

(* The whole file in one string, read straight from the descriptor: an
   in_channel would add its 64 KiB buffer to every open. *)
let read_file path =
  let fd = Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let n = (Unix.fstat fd).Unix.st_size in
      let b = Bytes.create n in
      let rec fill off =
        if off = n then off
        else match Unix.read fd b off (n - off) with 0 -> off | k -> fill (off + k)
      in
      let got = fill 0 in
      if got = n then Bytes.unsafe_to_string b else Bytes.sub_string b 0 got)

(* A payload's members, or [None] if it is not JSON.  One JSON pass
   checks an object payload and lists its members; a payload that
   [Json.member_spans] refuses is any other JSON value when [Json.valid]
   accepts it. *)
let payload_members raw pos len =
  match Json.member_spans raw pos len with
  | Some _ as members -> members
  | None -> if Json.valid raw pos len then Some [] else None

(* One pass over the file's bytes.  Returns every valid frame, the
   header's first, and the end of the valid prefix.  Each frame's CRC
   is taken and its JSON checked in place, and the first frame whose
   length, CRC or JSON fails ends the prefix: a torn tail from a
   crash. *)
let scan raw =
  let total = String.length raw in
  let rec frames pos acc =
    if pos + 8 > total then (List.rev acc, pos)
    else
      let len = get_u32_le raw pos in
      if
        pos + 8 + len > total
        || Crc32.update 0 raw (pos + 8) len <> get_u32_le raw (pos + 4)
      then (List.rev acc, pos)
      else
        match payload_members raw (pos + 8) len with
        | None -> (List.rev acc, pos)
        | Some members ->
          frames (pos + 8 + len) ({ pos = pos + 8; len; members } :: acc)
  in
  frames (String.length magic) []

(* A payload the scan accepted, as a tree. *)
let decode raw f = Result.get_ok (Json.of_substring raw f.pos f.len)

let load ~path =
  let read () =
    if not (Sys.file_exists path) then Error (path ^ ": no such file")
    else
      try Ok (read_file path)
      with Unix.Unix_error (e, fn, _) ->
        Error (Printf.sprintf "%s: %s: %s" path fn (Unix.error_message e))
  in
  match read () with
  | Error _ as e -> e
  | Ok raw when not (String.starts_with ~prefix:magic raw) ->
    Error (path ^ ": bad magic (not a record log)")
  | Ok raw -> (
    match scan raw with
    | [], _ -> Error (path ^ ": no valid header record")
    | hdr :: frames, valid_end -> (
      match header_of_json (decode raw hdr) with
      | None -> Error (path ^ ": malformed header record")
      | Some header ->
        let recovered = List.length frames in
        let discarded_bytes = String.length raw - valid_end in
        Runtime.Telemetry.add c_records_recovered recovered;
        Runtime.Telemetry.add c_bytes_discarded discarded_bytes;
        if discarded_bytes > 0 then
          Obs.Log.warn ~section:"persist"
            "%s: discarded %d trailing bytes (torn tail), kept %d records"
            path discarded_bytes recovered;
        Ok { s_header = header; bytes = raw; frames; s_valid_end = valid_end }))

let read ~path =
  Obs.Histogram.span replay_timer (fun () ->
      Result.map
        (fun l ->
          let records = List.map (decode l.bytes) l.frames in
          { header = l.s_header;
            records;
            recovered = List.length records;
            discarded_bytes = String.length l.bytes - l.s_valid_end;
            valid_end = l.s_valid_end })
        (load ~path))

(* ----- writing ----- *)

type t = {
  fd : Unix.file_descr;
  mutable pos : int;  (* current end-of-log offset *)
  mutable closed : bool;
  lock : Mutex.t;
}

(* Real OS write failures (ENOSPC, EIO...) surface as
   [Unix.Unix_error]; every degradation handler in this layer keys on
   [Sys_error], so unify the two here — otherwise a genuinely full
   disk would escape the handlers that the injected faults exercise. *)
let sys_error_of_unix e fn =
  Sys_error (Printf.sprintf "%s: %s" fn (Unix.error_message e))

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  try
    while !off < n do
      off := !off + Unix.write fd b !off (n - !off)
    done
  with Unix.Unix_error (e, fn, _) -> raise (sys_error_of_unix e fn)

let append_frame t ~is_header payload =
  Mutex.protect t.lock (fun () ->
      if t.closed then invalid_arg "Record_log: log is closed";
      let data = frame payload in
      let start = t.pos in
      let tear =
        if is_header then None
        else
          try Faults.on_record ()
          with Unix.Unix_error (e, fn, _) -> raise (sys_error_of_unix e fn)
      in
      match tear with
      | Some () ->
        (* Injected torn write: half the frame hits the disk, then the
           "process dies".  No repair — that is recovery's job. *)
        let k = max 1 (String.length data / 2) in
        write_all t.fd (String.sub data 0 k);
        t.pos <- start + k;
        Faults.short_write_die k
      | None -> (
        match
          Obs.Histogram.span flush_timer (fun () -> write_all t.fd data)
        with
        | () ->
          t.pos <- start + String.length data;
          if not is_header then begin
            Runtime.Telemetry.incr c_records_written;
            Faults.after_record ()
          end
        | exception Sys_error msg ->
          (* Real write failure: restore the record boundary so the
             in-process log stays consistent, then let callers decide
             whether to degrade. *)
          (try
             Unix.ftruncate t.fd start;
             ignore (Unix.lseek t.fd start Unix.SEEK_SET)
           with _ -> ());
          raise (Sys_error msg)))

let append t record = append_frame t ~is_header:false (Json.to_string record)

let sync t =
  Mutex.protect t.lock (fun () ->
      if not t.closed then
        Obs.Histogram.span flush_timer (fun () ->
            try Unix.fsync t.fd
            with Unix.Unix_error (e, fn, _) ->
              raise (sys_error_of_unix e fn)))

let close t =
  Mutex.protect t.lock (fun () ->
      if not t.closed then begin
        t.closed <- true;
        (try Unix.fsync t.fd with _ -> ());
        Unix.close t.fd
      end)

let git_commit () = Build_commit.commit

(* Every log this build writes carries format version 1 and no meta. *)
let create ~path ?commit ~schema () =
  let dir = Filename.dirname path in
  let fd =
    try
      if dir <> "" && not (Sys.file_exists dir) then
        (try Unix.mkdir dir 0o755
         with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
    with Unix.Unix_error (e, fn, _) -> raise (sys_error_of_unix e fn)
  in
  let t = { fd; pos = 0; closed = false; lock = Mutex.create () } in
  write_all fd magic;
  t.pos <- String.length magic;
  let commit = match commit with Some c -> c | None -> git_commit () in
  let header = { schema; version = 1; git_commit = commit; meta = [] } in
  append_frame t ~is_header:true (Json.to_string (header_to_json header));
  t

let open_checked ~path ~expect ~schema =
  if not (Sys.file_exists path) then Ok (create ~path ~schema (), "", [])
  else
    match load ~path with
    | Error e -> Error e
    | Ok l ->
      let h = l.s_header in
      if h.schema <> schema then
        Error
          (Printf.sprintf "%s: schema mismatch (log %S, expected %S)" path
             h.schema schema)
      else if h.version <> 1 then
        Error
          (Printf.sprintf "%s: version mismatch (log %d, expected 1)" path
             h.version)
      else if
        (* Cached evaluation results are replayed bit-for-bit, so a log
           written by a different build of the model must not be served.
           "unknown" (no git metadata) disables the check rather than
           invalidating every log. *)
        h.git_commit <> "unknown"
        && expect <> "unknown"
        && h.git_commit <> expect
      then
        Error
          (Printf.sprintf
             "%s: git commit mismatch (log %s, current %s); stale results"
             path h.git_commit expect)
      else begin
        let fd =
          try Unix.openfile path [ Unix.O_WRONLY ] 0o644
          with Unix.Unix_error (e, fn, _) -> raise (sys_error_of_unix e fn)
        in
        (* Chop any torn tail so new frames land on a record boundary. *)
        Unix.ftruncate fd l.s_valid_end;
        ignore (Unix.lseek fd l.s_valid_end Unix.SEEK_SET);
        let t =
          { fd; pos = l.s_valid_end; closed = false; lock = Mutex.create () }
        in
        Ok (t, l.bytes, l.frames)
      end

let open_spans ~path ~schema () =
  Result.map
    (fun (t, bytes, frames) -> (t, bytes, List.map (fun f -> f.members) frames))
    (open_checked ~path ~expect:(git_commit ()) ~schema)

let open_append ~path ?(expect_commit = git_commit ()) ~schema () =
  Obs.Histogram.span replay_timer (fun () ->
      Result.map
        (fun (t, bytes, frames) -> (t, List.map (decode bytes) frames))
        (open_checked ~path ~expect:expect_commit ~schema))

(* Atomic whole-file replacement: write to a temp file in the same
   directory, fsync, rename over the target.  Readers see either the
   old complete log or the new one, never a mixture. *)
let write_snapshot ~path ~schema records =
  let tmp = path ^ ".tmp" in
  let t = create ~path:tmp ~schema () in
  (try List.iter (append t) records
   with e ->
     close t;
     (try Sys.remove tmp with _ -> ());
     raise e);
  sync t;
  close t;
  Sys.rename tmp path
