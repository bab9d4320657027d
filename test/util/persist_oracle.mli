(** The record log's byte-level kernels before the one-scan open: the
    oracles of [Persist.Crc32] and [Persist.Json]'s scanner. *)

module Crc32 : sig
  val update : int -> string -> int -> int -> int
  (** Bytewise table-driven CRC-32, one dependent lookup per byte. *)
end

module Json : sig
  val of_string : string -> (Persist.Json.t, string) result
  (** The tree-building recursive-descent parser: a number is the
      longest [[0-9+-.eE]] run, converted by [int_of_string_opt] and
      [float_of_string_opt]. *)
end

module Record_log : sig
  val two_pass_open :
    string -> (int * int * (string * int * int) list option) list * int
  (** [two_pass_open bytes] opens a log's bytes (magic included) the way
      the record log did before one JSON pass per frame: frames are kept
      up to the first whose length, CRC or [Persist.Json.valid] check
      fails, then [Persist.Json.member_spans] reads each kept payload.
      Returns every kept frame's payload span with its member spans
      (header first) and the end of the kept prefix. *)
end
