(** The repository's one JSON tree, with a compact and a pretty
    emitter and a strict parser.

    The record log, the serve wire, the CLI's [--json] outputs, the
    bench files and the goldens all use this tree;
    [Sram_edp.Json_out] only converts the framework's records into it.
    Floats are printed with enough digits ([%.17g]) that
    [of_string (to_string v)] reproduces every finite IEEE double
    bit-for-bit — the property the resume protocol's
    bit-identical-winner guarantee rests on. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) serialization.
    @raise Invalid_argument on non-finite floats, which have no JSON
    representation; encode them as [Null] explicitly if needed. *)

val to_string_pretty : ?indent:int -> t -> string
(** Multi-line rendering with the given indent width (default 2); the
    same scalars as {!to_string}, so it raises on the same floats. *)

val of_string : string -> (t, string) result
(** Strict parse of a complete JSON document.  A document that nests
    arrays and objects more than 64 deep is an [Error] naming the
    limit. *)

(** {2 Accessors} — all total, returning [None] on shape mismatch. *)

val member : string -> t -> t option
val to_int : t -> int option
val to_float : t -> float option
(** [to_float] also accepts [Int] (JSON does not distinguish). *)

val to_string_opt : t -> string option
val to_bool : t -> bool option
val to_list : t -> t list option

val int_field : t -> string -> int option
val float_field : t -> string -> float option
val string_field : t -> string -> string option
