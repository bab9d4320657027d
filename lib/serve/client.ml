module P = Protocol
module J = Persist.Json

type t = {
  fd : Unix.file_descr;
  mutable next_id : int;
}

let addr_of ?tcp ?socket_path () =
  match (tcp, socket_path) with
  | Some (host, port), None ->
    let inet =
      try Unix.inet_addr_of_string host
      with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
    in
    Ok (Unix.PF_INET, Unix.ADDR_INET (inet, port))
  | None, Some path -> Ok (Unix.PF_UNIX, Unix.ADDR_UNIX path)
  | Some _, Some _ | None, None ->
    Error "connect: give exactly one of ~tcp / ~socket_path"

let connect ?tcp ?socket_path () =
  match addr_of ?tcp ?socket_path () with
  | Error _ as e -> e
  | Ok (domain, addr) -> (
    let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
    match Unix.connect fd addr with
    | () -> Ok { fd; next_id = 1 }
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (Printf.sprintf "connect: %s" (Unix.error_message e)))

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let call ?deadline_ms ?trace_id t endpoint =
  let id = t.next_id in
  t.next_id <- id + 1;
  let req = { P.id; deadline_ms; trace_id; endpoint } in
  match Frame.write t.fd (J.to_string (P.request_to_json req)) with
  | exception Unix.Unix_error (e, _, _) ->
    Error (Printf.sprintf "send: %s" (Unix.error_message e))
  | () -> (
    match Frame.read t.fd with
    | Error e -> Error (Printf.sprintf "receive: %s" (Frame.error_to_string e))
    | Ok payload -> (
      match Result.bind (J.of_string payload) P.response_of_json with
      | Error e -> Error (Printf.sprintf "bad response: %s" e)
      | Ok r when r.P.rid <> id ->
        Error
          (Printf.sprintf "response id %d does not match request id %d" r.P.rid
             id)
      | Ok r -> Ok r))

let payload_of = function
  | Error _ as e -> e
  | Ok { P.body = Ok payload; _ } -> Ok payload
  | Ok { P.body = Error (code, msg); _ } ->
    Error (Printf.sprintf "%s: %s" (P.error_code_to_string code) msg)

let ping t = payload_of (call t P.Ping)
let stats t = payload_of (call t P.Stats)

let metrics t =
  match payload_of (call t P.Metrics) with
  | Error _ as e -> e
  | Ok (J.String text) -> Ok text
  | Ok _ -> Error "metrics payload: expected a string"

let shutdown t =
  match payload_of (call t P.Shutdown) with
  | Ok _ -> Ok ()
  | Error _ as e -> e

let wait_ready ~socket_path () =
  let timeout_s = 10.0 in
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec attempt pause =
    match connect ~socket_path () with
    | Ok t -> (
      match ping t with
      | Ok _ -> Ok t
      | Error e ->
        close t;
        retry pause e)
    | Error e -> retry pause e
  and retry pause last =
    if Unix.gettimeofday () >= deadline then
      Error (Printf.sprintf "server not ready after %.1f s (%s)" timeout_s last)
    else begin
      (try ignore (Unix.select [] [] [] pause) with Unix.Unix_error _ -> ());
      attempt (Float.min 0.2 (pause *. 2.0))
    end
  in
  attempt 0.01

type answer = {
  capacity_bits : int;
  config : string;
  checksum : string;
  eval_s : float;
  result : Opt.Exhaustive.result;
  payload : J.t;
}

let explain ?deadline_ms ?trace_id t query =
  payload_of (call ?deadline_ms ?trace_id t (P.Explain query))

let optimize ?deadline_ms ?trace_id t query =
  match payload_of (call ?deadline_ms ?trace_id t (P.Optimize query)) with
  | Error _ as e -> e
  | Ok payload -> (
    let field name get =
      match get payload name with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "optimize payload: missing %s" name)
    in
    let ( let* ) = Result.bind in
    let* capacity_bits = field "capacity_bits" J.int_field in
    let* config = field "config" J.string_field in
    let* checksum = field "checksum" J.string_field in
    let* eval_s = field "eval_s" J.float_field in
    let* rj = field "result" (fun j n -> J.member n j) in
    match Opt.Exhaustive.result_of_json rj with
    | None -> Error "optimize payload: result does not decode"
    | Some result ->
      Ok { capacity_bits; config; checksum; eval_s; result; payload })
