(* Reference implementations of the record log's two byte-level
   kernels as they stood before the one-scan open: the bytewise
   table-driven CRC-32 and the tree-building JSON parser.
   [Persist.Crc32.update] (slicing-by-8), [Persist.Json.of_string],
   [Persist.Json.valid] and [Persist.Json.member_spans] must agree with
   these exactly; the properties in test_persist.ml check that.  Also
   the log's open as it stood before one JSON pass per frame: a frame
   scan that checks each payload with [Persist.Json.valid], then a
   second pass of [Persist.Json.member_spans] over every kept record. *)

module Crc32 = struct
  let table =
    lazy
      (Array.init 256 (fun n ->
           let c = ref n in
           for _ = 0 to 7 do
             if !c land 1 = 1 then c := 0xEDB88320 lxor (!c lsr 1)
             else c := !c lsr 1
           done;
           !c))

  let update crc s pos len =
    let t = Lazy.force table in
    let crc = ref (crc lxor 0xFFFFFFFF) in
    for i = pos to pos + len - 1 do
      crc := t.((!crc lxor Char.code (String.unsafe_get s i)) land 0xFF)
             lxor (!crc lsr 8)
    done;
    !crc lxor 0xFFFFFFFF
end

module Json = struct
  open Persist.Json

  exception Parse_error of string

  type state = { src : string; mutable pos : int }

  (* The parser recurses once per open array or object, so an unbounded
     depth would let one frame of brackets hold a daemon for seconds.  The
     deepest document the repository writes nests 7 levels. *)
  let max_depth = 64

  let fail st msg =
    raise (Parse_error (Printf.sprintf "%s at byte %d" msg st.pos))

  let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

  let skip_ws st =
    while
      st.pos < String.length st.src
      && (match st.src.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      st.pos <- st.pos + 1
    done

  let expect st c =
    match peek st with
    | Some got when got = c -> st.pos <- st.pos + 1
    | Some got -> fail st (Printf.sprintf "expected %C, got %C" c got)
    | None -> fail st (Printf.sprintf "expected %C, got end of input" c)

  let literal st word value =
    let n = String.length word in
    if
      st.pos + n <= String.length st.src
      && String.sub st.src st.pos n = word
    then begin
      st.pos <- st.pos + n;
      value
    end
    else fail st (Printf.sprintf "expected %s" word)

  let hex_digit st c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> fail st "bad \\u escape"

  let parse_string st =
    expect st '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if st.pos >= String.length st.src then fail st "unterminated string";
      let c = st.src.[st.pos] in
      st.pos <- st.pos + 1;
      match c with
      | '"' -> Buffer.contents buf
      | '\\' ->
        (if st.pos >= String.length st.src then fail st "unterminated escape";
         let e = st.src.[st.pos] in
         st.pos <- st.pos + 1;
         match e with
         | '"' -> Buffer.add_char buf '"'
         | '\\' -> Buffer.add_char buf '\\'
         | '/' -> Buffer.add_char buf '/'
         | 'n' -> Buffer.add_char buf '\n'
         | 'r' -> Buffer.add_char buf '\r'
         | 't' -> Buffer.add_char buf '\t'
         | 'b' -> Buffer.add_char buf '\b'
         | 'f' -> Buffer.add_char buf '\012'
         | 'u' ->
           if st.pos + 4 > String.length st.src then fail st "short \\u escape";
           let v =
             (hex_digit st st.src.[st.pos] lsl 12)
             lor (hex_digit st st.src.[st.pos + 1] lsl 8)
             lor (hex_digit st st.src.[st.pos + 2] lsl 4)
             lor hex_digit st st.src.[st.pos + 3]
           in
           st.pos <- st.pos + 4;
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
         | _ -> fail st "bad escape");
        go ()
      | c -> Buffer.add_char buf c; go ()
    in
    go ()

  let parse_number st =
    let start = st.pos in
    let is_number_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while
      st.pos < String.length st.src && is_number_char st.src.[st.pos]
    do
      st.pos <- st.pos + 1
    done;
    let text = String.sub st.src start (st.pos - start) in
    if text = "" then fail st "expected a number";
    let is_float =
      String.exists (fun c -> c = '.' || c = 'e' || c = 'E') text
    in
    if is_float then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail st (Printf.sprintf "bad float %S" text)
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
        (* Integer overflow: fall back to float rather than failing. *)
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> fail st (Printf.sprintf "bad number %S" text))

  let rec parse_value st ~depth =
    skip_ws st;
    match peek st with
    | None -> fail st "unexpected end of input"
    | Some ('[' | '{') when depth >= max_depth ->
      fail st (Printf.sprintf "nesting deeper than %d levels" max_depth)
    | Some 'n' -> literal st "null" Null
    | Some 't' -> literal st "true" (Bool true)
    | Some 'f' -> literal st "false" (Bool false)
    | Some '"' -> String (parse_string st)
    | Some '[' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = Some ']' then begin
        st.pos <- st.pos + 1;
        List []
      end
      else begin
        let items = ref [] in
        let rec go () =
          items := parse_value st ~depth:(depth + 1) :: !items;
          skip_ws st;
          match peek st with
          | Some ',' -> st.pos <- st.pos + 1; go ()
          | Some ']' -> st.pos <- st.pos + 1
          | _ -> fail st "expected ',' or ']'"
        in
        go ();
        List (List.rev !items)
      end
    | Some '{' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = Some '}' then begin
        st.pos <- st.pos + 1;
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec go () =
          skip_ws st;
          let key = parse_string st in
          skip_ws st;
          expect st ':';
          let value = parse_value st ~depth:(depth + 1) in
          fields := (key, value) :: !fields;
          skip_ws st;
          match peek st with
          | Some ',' -> st.pos <- st.pos + 1; go ()
          | Some '}' -> st.pos <- st.pos + 1
          | _ -> fail st "expected ',' or '}'"
        in
        go ();
        Obj (List.rev !fields)
      end
    | Some _ -> parse_number st

  let of_string s =
    let st = { src = s; pos = 0 } in
    match parse_value st ~depth:0 with
    | v ->
      skip_ws st;
      if st.pos <> String.length s then
        Error (Printf.sprintf "trailing garbage at byte %d" st.pos)
      else Ok v
    | exception Parse_error msg -> Error msg

end

module Record_log = struct
  let u32 s pos =
    Char.code s.[pos]
    lor (Char.code s.[pos + 1] lsl 8)
    lor (Char.code s.[pos + 2] lsl 16)
    lor (Char.code s.[pos + 3] lsl 24)

  let two_pass_open raw =
    let total = String.length raw in
    let rec frames pos acc =
      if pos + 8 > total then (List.rev acc, pos)
      else
        let len = u32 raw pos in
        if
          pos + 8 + len > total
          || Crc32.update 0 raw (pos + 8) len <> u32 raw (pos + 4)
          || not (Persist.Json.valid raw (pos + 8) len)
        then (List.rev acc, pos)
        else frames (pos + 8 + len) ((pos + 8, len) :: acc)
    in
    let kept, valid_end = frames 6 [] in
    ( List.map
        (fun (pos, len) -> (pos, len, Persist.Json.member_spans raw pos len))
        kept,
      valid_end )
end
