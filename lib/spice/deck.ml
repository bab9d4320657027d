type bindings = (string * Netlist.node) list

(* --- values --- *)

let suffixes =
  [ ("meg", 1e6); ("f", 1e-15); ("p", 1e-12); ("n", 1e-9); ("u", 1e-6);
    ("m", 1e-3); ("k", 1e3); ("g", 1e9) ]

let parse_value raw =
  let s = String.lowercase_ascii (String.trim raw) in
  if s = "" then Error "empty value"
  else begin
    let try_suffix (suffix, scale) =
      let ls = String.length s and lx = String.length suffix in
      if ls > lx && String.sub s (ls - lx) lx = suffix then
        match float_of_string_opt (String.sub s 0 (ls - lx)) with
        | Some v -> Some (v *. scale)
        | None -> None
      else None
    in
    (* "meg" must be tried before "m"/"g". *)
    match List.find_map try_suffix suffixes with
    | Some v -> Ok v
    | None ->
      (match float_of_string_opt s with
       | Some v -> Ok v
       | None -> Error (Printf.sprintf "bad value %S" raw))
  end

(* --- parsing --- *)

let is_ground name =
  match String.lowercase_ascii name with "0" | "gnd" -> true | _ -> false

let tokenize line =
  (* Split on blanks but keep PWL(...) together by first normalizing the
     parenthesized group: remove spaces around '(' ')' then split the
     argument list separately where needed. *)
  String.split_on_char ' ' (String.map (function '\t' -> ' ' | c -> c) line)
  |> List.filter (fun t -> t <> "")

let model_of_name lib name =
  match String.lowercase_ascii name with
  | "nfet_lvt" -> Some (Finfet.Library.nfet lib Finfet.Library.Lvt)
  | "nfet_hvt" -> Some (Finfet.Library.nfet lib Finfet.Library.Hvt)
  | "pfet_lvt" -> Some (Finfet.Library.pfet lib Finfet.Library.Lvt)
  | "pfet_hvt" -> Some (Finfet.Library.pfet lib Finfet.Library.Hvt)
  | _ -> None

type state = {
  netlist : Netlist.t;
  mutable names : bindings;
}

let resolve st name =
  if is_ground name then Netlist.ground
  else
    match List.assoc_opt name st.names with
    | Some node -> node
    | None ->
      let node = Netlist.fresh_node st.netlist name in
      st.names <- (name, node) :: st.names;
      node

let parse_pwl body =
  (* body looks like "PWL(0 0 1n 0.45)" (already joined). *)
  let inner =
    match String.index_opt body '(' with
    | Some i when body.[String.length body - 1] = ')' ->
      String.sub body (i + 1) (String.length body - i - 2)
    | Some _ | None -> ""
  in
  let tokens = tokenize inner in
  let rec pair = function
    | [] -> Ok []
    | t :: v :: rest ->
      (match (parse_value t, parse_value v) with
       | Ok time, Ok volts ->
         (match pair rest with
          | Ok tail -> Ok ((time, volts) :: tail)
          | Error e -> Error e)
       | Error e, _ | _, Error e -> Error e)
    | [ _ ] -> Error "PWL needs an even number of values"
  in
  match pair tokens with
  | Ok [] -> Error "empty PWL"
  | Ok corners -> Ok (Netlist.Pwl corners)
  | Error e -> Error e

let parse_source_spec tokens =
  (* [DC v] or [PWL(...)] possibly split across tokens. *)
  match tokens with
  | [ dc; v ] when String.uppercase_ascii dc = "DC" ->
    (match parse_value v with
     | Ok volts -> Ok (Netlist.Const volts)
     | Error e -> Error e)
  | [ v ] when String.length v >= 3
            && String.uppercase_ascii (String.sub v 0 3) = "PWL" ->
    parse_pwl v
  | pwl_tokens
    when pwl_tokens <> []
      && String.length (List.hd pwl_tokens) >= 3
      && String.uppercase_ascii (String.sub (List.hd pwl_tokens) 0 3) = "PWL" ->
    parse_pwl (String.concat " " pwl_tokens)
  | [ v ] ->
    (match parse_value v with
     | Ok volts -> Ok (Netlist.Const volts)
     | Error e -> Error e)
  | _ -> Error "expected DC <v> or PWL(...)"

let parse_fin_count token =
  let lower = String.lowercase_ascii token in
  if String.length lower > 5 && String.sub lower 0 5 = "nfin=" then
    match int_of_string_opt (String.sub lower 5 (String.length lower - 5)) with
    | Some k when k > 0 -> Ok k
    | Some _ | None -> Error (Printf.sprintf "bad fin count %S" token)
  else Error (Printf.sprintf "unexpected token %S" token)

let parse ~lib text =
  let st = { netlist = Netlist.create (); names = [] } in
  let error line msg = Error (Printf.sprintf "%s (in %S)" msg line) in
  let parse_line line =
    let trimmed = String.trim line in
    if trimmed = "" || trimmed.[0] = '*' then Ok ()
    else if String.lowercase_ascii trimmed = ".end" then Ok ()
    else begin
      match tokenize trimmed with
      | [] -> Ok ()
      | name :: rest ->
        (match (Char.uppercase_ascii name.[0], rest) with
         | 'R', [ a; b; v ] ->
           (match parse_value v with
            | Ok ohms ->
              Netlist.resistor st.netlist ~plus:(resolve st a) ~minus:(resolve st b) ~ohms;
              Ok ()
            | Error e -> error line e)
         | 'C', [ a; b; v ] ->
           (match parse_value v with
            | Ok farads ->
              Netlist.capacitor st.netlist ~plus:(resolve st a) ~minus:(resolve st b) ~farads;
              Ok ()
            | Error e -> error line e)
         | 'V', a :: b :: spec ->
           (match parse_source_spec spec with
            | Ok wave ->
              Netlist.vwave st.netlist ~plus:(resolve st a) ~minus:(resolve st b) ~wave;
              Ok ()
            | Error e -> error line e)
         | 'I', [ a; b; v ] | 'I', [ a; b; "DC"; v ] | 'I', [ a; b; "dc"; v ] ->
           (match parse_value v with
            | Ok amps ->
              Netlist.idc st.netlist ~from_node:(resolve st a) ~to_node:(resolve st b) ~amps;
              Ok ()
            | Error e -> error line e)
         | 'M', d :: g :: s :: model :: fins ->
           (match model_of_name lib model with
            | None -> error line (Printf.sprintf "unknown model %S" model)
            | Some params ->
              let nfin =
                match fins with
                | [] -> Ok 1
                | [ token ] -> parse_fin_count token
                | _ -> Error "too many tokens after the model"
              in
              (match nfin with
               | Ok nfin ->
                 Netlist.fet st.netlist ~params ~nfin ~gate:(resolve st g)
                   ~drain:(resolve st d) ~source:(resolve st s) ();
                 Ok ()
               | Error e -> error line e))
         | _ -> error line "unrecognized element")
    end
  in
  let rec run = function
    | [] ->
      (match Netlist.validate st.netlist with
       | Ok () -> Ok (st.netlist, List.rev st.names)
       | Error e -> Error e)
    | line :: rest ->
      (match parse_line line with Ok () -> run rest | Error e -> Error e)
  in
  run (String.split_on_char '\n' text)

let node bindings name =
  if is_ground name then Some Netlist.ground else List.assoc_opt name bindings
