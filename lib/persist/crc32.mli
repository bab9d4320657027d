(** IEEE CRC-32 (the zlib/PNG polynomial), used to detect torn or
    corrupted records in the append-only log and on the serve wire. *)

val string : string -> int
(** CRC-32 of a whole string, in [0, 0xFFFFFFFF]. *)

val update : int -> string -> int -> int -> int
(** [update crc s pos len] extends a running checksum [crc] (0 to
    start, else an earlier result) over [s.[pos .. pos+len-1]], in
    place: [string s = update 0 s 0 (length s)].
    @raise Invalid_argument if the range lies outside [s]. *)
