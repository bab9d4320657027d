module J = Persist.Json

type space_override = {
  vssc : float array option;
  nr : int array option;
  n_pre : int array option;
  n_wr : int array option;
}

let no_override = { vssc = None; nr = None; n_pre = None; n_wr = None }

let space_of_override o =
  let d = Opt.Space.default in
  { Opt.Space.vssc_values =
      (match o.vssc with Some v -> v | None -> d.Opt.Space.vssc_values);
    nr_values = (match o.nr with Some v -> v | None -> d.Opt.Space.nr_values);
    n_pre_values =
      (match o.n_pre with Some v -> v | None -> d.Opt.Space.n_pre_values);
    n_wr_values =
      (match o.n_wr with Some v -> v | None -> d.Opt.Space.n_wr_values) }

let reduced_override =
  let r = Opt.Space.reduced in
  { vssc = Some r.Opt.Space.vssc_values;
    nr = Some r.Opt.Space.nr_values;
    n_pre = Some r.Opt.Space.n_pre_values;
    n_wr = Some r.Opt.Space.n_wr_values }

type query = {
  capacity_bits : int;
  flavor : Finfet.Library.flavor;
  method_ : Opt.Space.method_;
  strategy : Opt.Strategy.t;
  rng_seed : int;
  objective : Opt.Objective.t;
  accounting : Array_model.Array_eval.accounting;
  w : int;
  space : space_override;
}

let default_query =
  { capacity_bits = 4096 * 8;
    flavor = Finfet.Library.Hvt;
    method_ = Opt.Space.M2;
    strategy = Opt.Strategy.Exhaustive;
    rng_seed = Opt.Strategy.default_seed;
    objective = Opt.Objective.Energy_delay_product;
    accounting = Array_model.Array_eval.Paper_strict;
    w = 64;
    space = no_override }

type endpoint =
  | Ping
  | Optimize of query
  | Explain of query
  | Stats
  | Metrics
  | Shutdown

let endpoint_name = function
  | Ping -> "ping"
  | Optimize _ -> "optimize"
  | Explain _ -> "explain"
  | Stats -> "stats"
  | Metrics -> "metrics"
  | Shutdown -> "shutdown"

type request = {
  id : int;
  deadline_ms : float option;
  trace_id : string option;
  endpoint : endpoint;
}

type error_code =
  | Bad_request
  | Busy
  | Deadline
  | Shutting_down
  | Internal

let error_code_to_string = function
  | Bad_request -> "bad_request"
  | Busy -> "busy"
  | Deadline -> "deadline"
  | Shutting_down -> "shutting_down"
  | Internal -> "internal"

let error_code_of_string = function
  | "bad_request" -> Some Bad_request
  | "busy" -> Some Busy
  | "deadline" -> Some Deadline
  | "shutting_down" -> Some Shutting_down
  | "internal" -> Some Internal
  | _ -> None

type response = {
  rid : int;
  rtrace_id : string option;  (* echo of the request's trace id *)
  body : (J.t, error_code * string) result;
}

(* ----- enum spellings (the CLI's flag values, lowercased) ----- *)

let objective_to_string = function
  | Opt.Objective.Energy_delay_product -> "edp"
  | Opt.Objective.Energy_delay_squared -> "ed2"
  | Opt.Objective.Energy_only -> "energy"
  | Opt.Objective.Delay_only -> "delay"

let objective_of_string = function
  | "edp" -> Some Opt.Objective.Energy_delay_product
  | "ed2" -> Some Opt.Objective.Energy_delay_squared
  | "energy" -> Some Opt.Objective.Energy_only
  | "delay" -> Some Opt.Objective.Delay_only
  | _ -> None

let accounting_to_string = function
  | Array_model.Array_eval.Paper_strict -> "strict"
  | Array_model.Array_eval.Physical -> "physical"

let accounting_of_string = function
  | "strict" -> Some Array_model.Array_eval.Paper_strict
  | "physical" -> Some Array_model.Array_eval.Physical
  | _ -> None

(* ----- encoding ----- *)

let floats a = J.List (Array.to_list a |> List.map (fun v -> J.Float v))
let ints a = J.List (Array.to_list a |> List.map (fun v -> J.Int v))

let space_override_to_json (o : space_override) =
  let field name enc = function None -> [] | Some v -> [ (name, enc v) ] in
  J.Obj
    (field "vssc_v" floats o.vssc
    @ field "nr" ints o.nr
    @ field "n_pre" ints o.n_pre
    @ field "n_wr" ints o.n_wr)

let query_to_json (q : query) =
  let base =
    [ ("capacity_bits", J.Int q.capacity_bits);
      ("flavor",
       J.String (String.lowercase_ascii (Finfet.Library.flavor_to_string q.flavor)));
      ("method", J.String (String.lowercase_ascii (Opt.Space.method_name q.method_)));
      ("strategy", J.String (Opt.Strategy.name q.strategy));
      ("rng_seed", J.Int q.rng_seed);
      ("objective", J.String (objective_to_string q.objective));
      ("accounting", J.String (accounting_to_string q.accounting));
      ("w", J.Int q.w) ]
  in
  let space =
    if q.space = no_override then []
    else [ ("space", space_override_to_json q.space) ]
  in
  J.Obj (base @ space)

let request_to_json (r : request) =
  let deadline =
    match r.deadline_ms with
    | None -> []
    | Some ms -> [ ("deadline_ms", J.Float ms) ]
  in
  let trace =
    match r.trace_id with
    | None -> []
    | Some id -> [ ("trace_id", J.String id) ]
  in
  let query =
    match r.endpoint with
    | Optimize q | Explain q -> [ ("query", query_to_json q) ]
    | Ping | Stats | Metrics | Shutdown -> []
  in
  J.Obj
    ([ ("id", J.Int r.id);
       ("endpoint", J.String (endpoint_name r.endpoint)) ]
    @ deadline @ trace @ query)

let response_to_json (r : response) =
  let trace =
    match r.rtrace_id with
    | None -> []
    | Some id -> [ ("trace_id", J.String id) ]
  in
  match r.body with
  | Ok payload ->
    J.Obj
      ([ ("id", J.Int r.rid); ("status", J.String "ok") ]
      @ trace
      @ [ ("payload", payload) ])
  | Error (code, message) ->
    J.Obj
      ([ ("id", J.Int r.rid); ("status", J.String "error") ]
      @ trace
      @ [ ("code", J.String (error_code_to_string code));
          ("message", J.String message) ])

let encode_response r =
  match J.to_string (response_to_json r) with
  | s -> (r, s)
  | exception Invalid_argument msg ->
    let r = { r with body = Error (Internal, "response serialization: " ^ msg) } in
    (r, J.to_string (response_to_json r))

(* ----- decoding ----- *)

let ( let* ) = Result.bind

let require what = function
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or malformed %s" what)

let float_array_field j name =
  match J.member name j with
  | None -> Ok None
  | Some v ->
    let* l = require (name ^ " array") (J.to_list v) in
    let* fs =
      List.fold_right
        (fun x acc ->
          let* acc = acc in
          let* f = require (name ^ " element") (J.to_float x) in
          Ok (f :: acc))
        l (Ok [])
    in
    Ok (Some (Array.of_list fs))

let int_array_field j name =
  match J.member name j with
  | None -> Ok None
  | Some v ->
    let* l = require (name ^ " array") (J.to_list v) in
    let* is =
      List.fold_right
        (fun x acc ->
          let* acc = acc in
          let* i = require (name ^ " element") (J.to_int x) in
          Ok (i :: acc))
        l (Ok [])
    in
    Ok (Some (Array.of_list is))

let space_override_of_json j =
  let* vssc = float_array_field j "vssc_v" in
  let* nr = int_array_field j "nr" in
  let* n_pre = int_array_field j "n_pre" in
  let* n_wr = int_array_field j "n_wr" in
  Ok { vssc; nr; n_pre; n_wr }

let enum_field j name of_string ~default =
  match J.member name j with
  | None -> Ok default
  | Some v ->
    let* s = require name (J.to_string_opt v) in
    require (Printf.sprintf "%s value %S" name s)
      (of_string (String.lowercase_ascii s))

let query_of_json j =
  let* capacity_bits = require "capacity_bits" (J.int_field j "capacity_bits") in
  let* capacity_bits =
    Result.map_error
      (fun e -> "bad capacity_bits: " ^ e)
      (Array_model.Geometry.check_capacity capacity_bits)
  in
  let* flavor =
    enum_field j "flavor"
      (fun s -> Finfet.Library.flavor_of_string s)
      ~default:default_query.flavor
  in
  (* The "method" field speaks {!Opt.Strategy.parse_method}'s grammar:
     a pin policy ("m1"/"m2"), a strategy name ("nsga2", ...), or both
     ("m1:nsga2").  An explicit "strategy" field wins over whatever the
     method spelled; anything unparseable is a typed decode error —
     the server answers [bad_request], the connection stays open. *)
  let* pin, method_strategy =
    match J.member "method" j with
    | None -> Ok (None, None)
    | Some v ->
      let* s = require "method" (J.to_string_opt v) in
      require
        (Printf.sprintf "method value %S" s)
        (Opt.Strategy.parse_method s)
  in
  let method_ = Option.value ~default:default_query.method_ pin in
  let* strategy =
    enum_field j "strategy" Opt.Strategy.of_name
      ~default:(Option.value ~default:default_query.strategy method_strategy)
  in
  let rng_seed =
    Option.value ~default:default_query.rng_seed (J.int_field j "rng_seed")
  in
  let* objective =
    enum_field j "objective" objective_of_string ~default:default_query.objective
  in
  let* accounting =
    enum_field j "accounting" accounting_of_string
      ~default:default_query.accounting
  in
  let w = Option.value ~default:default_query.w (J.int_field j "w") in
  let* space =
    match J.member "space" j with
    | None -> Ok no_override
    | Some sj -> space_override_of_json sj
  in
  Ok
    { capacity_bits; flavor; method_; strategy; rng_seed; objective;
      accounting; w; space }

let request_of_json j =
  let* id = require "id" (J.int_field j "id") in
  let* endpoint_s = require "endpoint" (J.string_field j "endpoint") in
  let deadline_ms = J.float_field j "deadline_ms" in
  let trace_id = J.string_field j "trace_id" in
  let* endpoint =
    match endpoint_s with
    | "ping" -> Ok Ping
    | "stats" -> Ok Stats
    | "metrics" -> Ok Metrics
    | "shutdown" -> Ok Shutdown
    | "optimize" | "explain" ->
      let* qj = require "query" (J.member "query" j) in
      let* q = query_of_json qj in
      Ok (if endpoint_s = "explain" then Explain q else Optimize q)
    | other -> Error (Printf.sprintf "unknown endpoint %S" other)
  in
  Ok { id; deadline_ms; trace_id; endpoint }

let response_of_json j =
  let* rid = require "id" (J.int_field j "id") in
  let* status = require "status" (J.string_field j "status") in
  let rtrace_id = J.string_field j "trace_id" in
  match status with
  | "ok" ->
    let* payload = require "payload" (J.member "payload" j) in
    Ok { rid; rtrace_id; body = Ok payload }
  | "error" ->
    let* code_s = require "code" (J.string_field j "code") in
    let* code = require ("code " ^ code_s) (error_code_of_string code_s) in
    let message = Option.value ~default:"" (J.string_field j "message") in
    Ok { rid; rtrace_id; body = Error (code, message) }
  | other -> Error (Printf.sprintf "unknown status %S" other)
