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
