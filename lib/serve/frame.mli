(** Wire framing for the serving protocol: [u32-LE payload length |
    u32-LE CRC-32 | payload bytes], the same frame layout as the
    {!Persist.Record_log} on-disk format (minus the file magic), so one
    crash/corruption model covers both the disk and the wire.

    Payloads are compact JSON ({!Persist.Json}); this module only moves
    opaque strings.  Two read paths are provided: a blocking
    read-exactly loop for clients (one outstanding request per
    connection) and an incremental decoder for the server's
    select-driven loop, which must never block on a slow or malicious
    peer mid-frame. *)

val max_frame_default : int
(** 4 MiB — far above any request or response this protocol carries;
    a length prefix beyond the limit is treated as garbage, not as an
    instruction to allocate. *)

type error =
  | Eof               (** peer closed cleanly between frames *)
  | Truncated         (** peer closed mid-frame *)
  | Oversized of int  (** declared length beyond [max_len] *)
  | Crc_mismatch      (** payload did not match its checksum *)

val error_to_string : error -> string

val write : Unix.file_descr -> string -> unit
(** Write one frame (header + payload), looping over short writes.
    Raises [Unix.Unix_error] (e.g. [EPIPE]) on a dead peer. *)

val read : Unix.file_descr -> (string, error) result
(** Blocking read of exactly one frame of at most {!max_frame_default}
    bytes. *)

(** {2 Incremental decoding} — feed bytes as they arrive, pop complete
    frames.  A decoder error is sticky: the connection's byte stream is
    unsynchronized and must be dropped. *)

type decoder

val decoder : ?max_len:int -> unit -> decoder
(** A decoder refusing frames longer than [max_len] bytes (default
    {!max_frame_default}). *)

val feed : decoder -> bytes -> int -> unit
(** [feed d buf n] appends the first [n] bytes of [buf]. *)

val next : decoder -> (string option, error) result
(** Pop the next complete frame; [Ok None] when more bytes are needed.
    Only [Oversized] and [Crc_mismatch] occur here ([Eof]/[Truncated]
    are the caller's to diagnose from the socket). *)

val buffered : decoder -> int
(** Bytes held but not yet consumed — nonzero at EOF means the peer
    died mid-frame. *)

val peek : decoder -> string
(** The unconsumed bytes, without consuming them.  The server's
    HTTP shim sniffs these to tell a plain-text [GET /metrics] from a
    frame stream (an ASCII request line read as a u32-LE length is
    ~500 MB — no valid frame starts that way). *)
