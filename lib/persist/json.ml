type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ----- emission ----- *)

let escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

(* 17 significant digits round-trip every finite IEEE double exactly
   through [float_of_string], which is what lets replayed records
   reproduce bit-identical scores.  Non-finite floats have no JSON
   representation and are a caller bug. *)
let float_repr f =
  if not (Float.is_finite f) then
    invalid_arg "Persist.Json: non-finite float has no JSON representation";
  if Float.is_integer f && abs_float f < 1e15 then Printf.sprintf "%.1f" f
  else
    let s = Printf.sprintf "%.17g" f in
    (* Integral floats in [1e15, 1e17) render without '.' or 'e' and
       would replay as Int; keep the float marker so the constructor
       round-trips, not just the value. *)
    if String.contains s '.' || String.contains s 'e' || String.contains s 'E'
    then s
    else s ^ ".0"

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s ->
    Buffer.add_char buf '"';
    escape buf s;
    Buffer.add_char buf '"'
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        emit buf item)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (key, value) ->
        if i > 0 then Buffer.add_char buf ',';
        emit buf (String key);
        Buffer.add_char buf ':';
        emit buf value)
      fields;
    Buffer.add_char buf '}'

let to_string t =
  let buf = Buffer.create 256 in
  emit buf t;
  Buffer.contents buf

(* Two spaces per nesting level. *)
let pad buf n = Buffer.add_string buf (String.make (2 * n) ' ')

let rec emit_pretty buf ~level = function
  | (Null | Bool _ | Int _ | Float _ | String _) as v -> emit buf v
  | List [] -> Buffer.add_string buf "[]"
  | Obj [] -> Buffer.add_string buf "{}"
  | List items ->
    Buffer.add_string buf "[\n";
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_string buf ",\n";
        pad buf (level + 1);
        emit_pretty buf ~level:(level + 1) item)
      items;
    Buffer.add_char buf '\n';
    pad buf level;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_string buf "{\n";
    List.iteri
      (fun i (key, value) ->
        if i > 0 then Buffer.add_string buf ",\n";
        pad buf (level + 1);
        emit buf (String key);
        Buffer.add_string buf ": ";
        emit_pretty buf ~level:(level + 1) value)
      fields;
    Buffer.add_char buf '\n';
    pad buf level;
    Buffer.add_char buf '}'

let to_string_pretty t =
  let buf = Buffer.create 512 in
  emit_pretty buf ~level:0 t;
  Buffer.contents buf

(* ----- scanning ----- *)

(* One scanner reads documents two ways.  With [build] it returns the
   tree.  Without, it only decides whether the bytes are a document the
   tree-building pass accepts, and allocates nothing but its state: a
   string is checked in place, a number against the grammar its
   conversion accepts, and a container keeps no items.  The two ways
   raise the same errors at the same bytes. *)

exception Parse_error of string

type state = {
  src : string;
  mutable pos : int;
  stop : int;  (* one past the last byte of the document *)
  build : bool;
}

(* The scanner recurses once per open array or object, so an unbounded
   depth would let one frame of brackets hold a daemon for seconds.  The
   deepest document the repository writes nests 7 levels. *)
let max_depth = 64

let fail st msg =
  raise (Parse_error (Printf.sprintf "%s at byte %d" msg st.pos))

let at st c = st.pos < st.stop && String.unsafe_get st.src st.pos = c

let skip_ws st =
  while
    st.pos < st.stop
    && (match String.unsafe_get st.src st.pos with
        | ' ' | '\t' | '\n' | '\r' -> true
        | _ -> false)
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  if st.pos >= st.stop then
    fail st (Printf.sprintf "expected %C, got end of input" c);
  let got = String.unsafe_get st.src st.pos in
  if got = c then st.pos <- st.pos + 1
  else fail st (Printf.sprintf "expected %C, got %C" c got)

let literal st word value =
  let n = String.length word in
  let i = ref 0 in
  while
    !i < n && st.pos + !i < st.stop
    && String.unsafe_get st.src (st.pos + !i) = String.unsafe_get word !i
  do
    incr i
  done;
  if !i < n then fail st (Printf.sprintf "expected %s" word);
  st.pos <- st.pos + n;
  value

let hex_value c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> -1

(* The first quote or backslash in [s.[i .. stop-1]], or [stop]. *)
let rec plain_end s i stop =
  if i < stop && match String.unsafe_get s i with '"' | '\\' -> false | _ -> true
  then plain_end s (i + 1) stop
  else i

(* Checks a string literal in place, from its opening quote, and leaves
   [st.pos] just past its closing quote.  Returns whether it holds an
   escape. *)
let scan_string st =
  expect st '"';
  let escaped = ref false and closed = ref false in
  while not !closed do
    st.pos <- plain_end st.src st.pos st.stop;
    if st.pos >= st.stop then fail st "unterminated string";
    let c = String.unsafe_get st.src st.pos in
    st.pos <- st.pos + 1;
    if c = '"' then closed := true
    else if c = '\\' then begin
      escaped := true;
      if st.pos >= st.stop then fail st "unterminated escape";
      let e = String.unsafe_get st.src st.pos in
      st.pos <- st.pos + 1;
      match e with
      | '"' | '\\' | '/' | 'n' | 'r' | 't' | 'b' | 'f' -> ()
      | 'u' ->
        if st.pos + 4 > st.stop then fail st "short \\u escape";
        for k = 0 to 3 do
          if hex_value (String.unsafe_get st.src (st.pos + k)) < 0 then
            fail st "bad \\u escape"
        done;
        st.pos <- st.pos + 4
      | _ -> fail st "bad escape"
    end
  done;
  !escaped

(* The contents of a string literal [scan_string] checked, its bytes
   lying in [s.[first .. last-1]]. *)
let decode_string s first last ~escaped =
  if not escaped then String.sub s first (last - first)
  else begin
    let buf = Buffer.create (last - first) in
    let i = ref first in
    while !i < last do
      let c = s.[!i] in
      if c <> '\\' then begin
        Buffer.add_char buf c;
        incr i
      end
      else begin
        let e = s.[!i + 1] in
        i := !i + 2;
        match e with
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'u' ->
          let v =
            (hex_value s.[!i] lsl 12)
            lor (hex_value s.[!i + 1] lsl 8)
            lor (hex_value s.[!i + 2] lsl 4)
            lor hex_value s.[!i + 3]
          in
          i := !i + 4;
          (* We only ever emit \u for C0 controls; decode the basic
             multilingual plane as UTF-8 so foreign files survive too. *)
          if v < 0x80 then Buffer.add_char buf (Char.chr v)
          else if v < 0x800 then begin
            Buffer.add_char buf (Char.chr (0xC0 lor (v lsr 6)));
            Buffer.add_char buf (Char.chr (0x80 lor (v land 0x3F)))
          end
          else begin
            Buffer.add_char buf (Char.chr (0xE0 lor (v lsr 12)));
            Buffer.add_char buf (Char.chr (0x80 lor ((v lsr 6) land 0x3F)));
            Buffer.add_char buf (Char.chr (0x80 lor (v land 0x3F)))
          end
        | c -> (* '"', '\\' or '/' *) Buffer.add_char buf c
      end
    done;
    Buffer.contents buf
  end

let is_number_char = function
  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
  | _ -> false

let rec skip_digits s i stop =
  if i < stop && match String.unsafe_get s i with '0' .. '9' -> true | _ -> false
  then skip_digits s (i + 1) stop
  else i

let sign_at s i stop =
  i < stop && match String.unsafe_get s i with '+' | '-' -> true | _ -> false

(* The end of the decimal number [[+-]? (d+ (. d* )? | . d+) ([eE] [+-]? d+)?]
   that starts [s.[first .. stop-1]], read greedily, or -1 if none
   does.  A run of number characters is a number exactly when this
   reads all of it, and that is what [int_of_string] or
   [float_of_string] accepts whole: the hexadecimal, underscore and word
   forms they also take need letters the run cannot hold. *)
let decimal_end s first stop =
  let int_first = if sign_at s first stop then first + 1 else first in
  let int_last = skip_digits s int_first stop in
  let frac_last =
    if int_last < stop && String.unsafe_get s int_last = '.' then
      skip_digits s (int_last + 1) stop
    else int_last
  in
  if int_last = int_first && frac_last <= int_last + 1 then -1 (* no digit *)
  else if
    frac_last < stop
    && match String.unsafe_get s frac_last with 'e' | 'E' -> true | _ -> false
  then
    let exp_first =
      if sign_at s (frac_last + 1) stop then frac_last + 2 else frac_last + 1
    in
    let exp_last = skip_digits s exp_first stop in
    if exp_last > exp_first then exp_last else -1
  else frac_last

let rec has_float_mark s i last =
  i < last && (match s.[i] with '.' | 'e' | 'E' -> true | _ -> has_float_mark s (i + 1) last)

(* Fails on the run of number characters that starts at [first]: the
   whole run is named, as a float if it holds [.], [e] or [E]. *)
let bad_run st first =
  st.pos <- first;
  while st.pos < st.stop && is_number_char (String.unsafe_get st.src st.pos) do
    st.pos <- st.pos + 1
  done;
  if st.pos = first then fail st "expected a number";
  let text = String.sub st.src first (st.pos - first) in
  fail st
    (Printf.sprintf
       (if has_float_mark text 0 (String.length text) then "bad float %S"
        else "bad number %S")
       text)

(* A number is the longest run of number characters.  A run that
   spells neither an int nor a float is an error; an int too large
   for [int] reads as a float. *)
let scan_number st =
  let first = st.pos in
  let last = decimal_end st.src first st.stop in
  if last < 0 || (last < st.stop && is_number_char (String.unsafe_get st.src last))
  then bad_run st first;
  st.pos <- last;
  if not st.build then Null
  else
    let text = String.sub st.src first (last - first) in
    match
      if has_float_mark text 0 (String.length text) then None
      else int_of_string_opt text
    with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> bad_run st first)

let rec scan_value st ~depth =
  skip_ws st;
  if st.pos >= st.stop then fail st "unexpected end of input";
  match String.unsafe_get st.src st.pos with
  | ('[' | '{') when depth >= max_depth ->
    fail st (Printf.sprintf "nesting deeper than %d levels" max_depth)
  | 'n' -> literal st "null" Null
  | 't' -> literal st "true" (Bool true)
  | 'f' -> literal st "false" (Bool false)
  | '"' ->
    let first = st.pos + 1 in
    let escaped = scan_string st in
    if st.build then String (decode_string st.src first (st.pos - 1) ~escaped)
    else Null
  | '[' ->
    st.pos <- st.pos + 1;
    skip_ws st;
    if at st ']' then begin
      st.pos <- st.pos + 1;
      List []
    end
    else scan_items st ~depth []
  | '{' ->
    st.pos <- st.pos + 1;
    skip_ws st;
    if at st '}' then begin
      st.pos <- st.pos + 1;
      Obj []
    end
    else scan_members st ~depth []
  | _ -> scan_number st

(* A container's items after its opening bracket, [acc] holding those
   read so far (newest first) when building. *)
and scan_items st ~depth acc =
  let item = scan_value st ~depth:(depth + 1) in
  let acc = if st.build then item :: acc else acc in
  skip_ws st;
  if at st ',' then begin
    st.pos <- st.pos + 1;
    scan_items st ~depth acc
  end
  else if at st ']' then begin
    st.pos <- st.pos + 1;
    if st.build then List (List.rev acc) else Null
  end
  else fail st "expected ',' or ']'"

and scan_members st ~depth acc =
  skip_ws st;
  let key_first = st.pos + 1 in
  let escaped = scan_string st in
  let key_last = st.pos - 1 in
  skip_ws st;
  expect st ':';
  let value = scan_value st ~depth:(depth + 1) in
  let acc =
    if st.build then (decode_string st.src key_first key_last ~escaped, value) :: acc
    else acc
  in
  skip_ws st;
  if at st ',' then begin
    st.pos <- st.pos + 1;
    scan_members st ~depth acc
  end
  else if at st '}' then begin
    st.pos <- st.pos + 1;
    if st.build then Obj (List.rev acc) else Null
  end
  else fail st "expected ',' or '}'"

let state ~build s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Persist.Json: range outside the string";
  { src = s; pos; stop = pos + len; build }

let scan_document st =
  let v = scan_value st ~depth:0 in
  skip_ws st;
  if st.pos <> st.stop then
    raise (Parse_error (Printf.sprintf "trailing garbage at byte %d" st.pos));
  v

let of_substring s pos len =
  match scan_document (state ~build:true s pos len) with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

let of_string s = of_substring s 0 (String.length s)

let valid s pos len =
  match scan_document (state ~build:false s pos len) with
  | _ -> true
  | exception Parse_error _ -> false

(* An object's members from the next one's key on, each with its
   value's span, prepended to [acc] newest first; [st.pos] ends past the
   closing brace. *)
let rec member_span_list st acc =
  skip_ws st;
  let key_first = st.pos + 1 in
  let escaped = scan_string st in
  let key = decode_string st.src key_first (st.pos - 1) ~escaped in
  skip_ws st;
  expect st ':';
  skip_ws st;
  let first = st.pos in
  ignore (scan_value st ~depth:1);
  let acc = (key, first, st.pos - first) :: acc in
  skip_ws st;
  if at st ',' then begin
    st.pos <- st.pos + 1;
    member_span_list st acc
  end
  else begin
    expect st '}';
    acc
  end

let member_spans s pos len =
  let st = state ~build:false s pos len in
  match
    skip_ws st;
    expect st '{';
    skip_ws st;
    let members =
      if at st '}' then begin
        st.pos <- st.pos + 1;
        []
      end
      else List.rev (member_span_list st [])
    in
    skip_ws st;
    if st.pos <> st.stop then fail st "trailing garbage";
    members
  with
  | members -> Some members
  | exception Parse_error _ -> None

(* ----- accessors ----- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_int = function Int i -> Some i | _ -> None

let to_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_string_opt = function String s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_list = function List l -> Some l | _ -> None

let int_field j key = Option.bind (member key j) to_int
let float_field j key = Option.bind (member key j) to_float
let string_field j key = Option.bind (member key j) to_string_opt
