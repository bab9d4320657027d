(** The repository's one JSON tree, with a compact and a pretty
    emitter and a strict parser.

    The record log, the serve wire, the CLI's [--json] outputs, the
    bench files and the goldens all use this tree;
    [Sram_edp.Json_out] only converts the framework's records into it.
    Floats are printed with enough digits ([%.17g]) that
    [of_string (to_string v)] reproduces every finite IEEE double
    bit-for-bit — the property the resume protocol's
    bit-identical-winner guarantee rests on.

    One scanner reads documents.  {!of_string} builds the tree from it;
    {!valid} runs it without building anything; {!member_spans} walks
    one object's members and leaves their values as byte spans.  The
    record log checks each object frame it opens with {!member_spans},
    whose spans the disk cache then indexes without decoding a value,
    and any other frame with {!valid}.  The three accept exactly the
    same documents. *)

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

val to_string_pretty : t -> string
(** Multi-line rendering, two spaces per nesting level; the same
    scalars as {!to_string}, so it raises on the same floats. *)

val of_string : string -> (t, string) result
(** Strict parse of a complete JSON document.  A document that nests
    arrays and objects more than 64 deep is an [Error] naming the
    limit.  A number is the longest run of [0-9+-.eE]; the run must
    spell [[+-]? (d+ (. d* )? | . d+) ([eE] [+-]? d+)?], and reads as an
    [Int] unless it holds [.], [e] or [E] or overflows [int]. *)

val of_substring : string -> int -> int -> (t, string) result
(** [of_substring s pos len] parses the document [s.[pos .. pos+len-1]]
    in place, as [of_string (String.sub s pos len)] would; error
    offsets count from the start of [s].
    @raise Invalid_argument if the range lies outside [s]. *)

val valid : string -> int -> int -> bool
(** [valid s pos len] is whether [of_substring s pos len] is [Ok _],
    decided without building anything: on a valid document the scan
    allocates only its own five-word state.
    @raise Invalid_argument if the range lies outside [s]. *)

val member_spans : string -> int -> int -> (string * int * int) list option
(** [member_spans s pos len] lists the members of the object document
    [s.[pos .. pos+len-1]] in order, each as its decoded name and the
    [(pos, len)] byte span of its value in [s], where
    [of_substring s pos len] decodes the value.  [None] when the range
    is not a valid object document.
    @raise Invalid_argument if the range lies outside [s]. *)

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
