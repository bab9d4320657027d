module P = Protocol
module J = Persist.Json

type config = {
  socket_path : string option;
  tcp : (string * int) option;
  max_queue : int;
  default_deadline_ms : float option;
  max_frame : int;
  install_signals : bool;
  observability : bool;
  flight_dir : string option;
  slow_ms : float option;
}

let default_config =
  { socket_path = None;
    tcp = None;
    max_queue = 64;
    default_deadline_ms = None;
    max_frame = Frame.max_frame_default;
    install_signals = true;
    observability = true;
    flight_dir = None;
    slow_ms = None }

type summary = {
  connections : int;
  served : int;
  errors : int;
}

(* A connection's first bytes decide its dialect: frame streams open
   with a u32-LE length (always far below the 4 MiB cap), while an
   ASCII "GET " read as a length is ~540 MB — so the shim can serve
   plain-HTTP monitoring scrapes on the same listener without a
   reserved port. *)
type mode = Sniff | Frames | Http

type conn = {
  fd : Unix.file_descr;
  dec : Frame.decoder;
  peer : string;
  mutable mode : mode;
  mutable alive : bool;
}

type pending = {
  conn : conn;
  req : P.request;
  tid : string option;  (* the trace id this request runs under *)
  t_admit : float;
}

(* ----- telemetry ----- *)

let now = Obs.Clock.now
let count name = Runtime.Telemetry.incr (Runtime.Telemetry.counter name)
let h_queue_wait = lazy (Obs.Histogram.create "serve.queue_wait")
let h_e2e = lazy (Obs.Histogram.create "serve.e2e")
let h_handle name = Obs.Histogram.create ("serve.handle." ^ name)

let slo_counters =
  [ "serve.requests"; "serve.responses"; "serve.errors";
    "serve.deadline_expired"; "serve.rejected_busy"; "serve.bad_request";
    "serve.bad_frame" ]

(* Register the windowed views and arm the flight recorder.  Windows
   are created up front for every endpoint histogram so the stats /
   metrics output has stable shape from the first scrape. *)
let init_observability config =
  Obs.Flight.arm ?dir:config.flight_dir ();
  (* Search journal on for the server's lifetime: its counters feed the
     Prometheus exposition.  Observation only — winners stay
     bit-identical to a journal-off run. *)
  Obs.Search.arm ();
  ignore (Obs.Window.create (Lazy.force h_queue_wait));
  ignore (Obs.Window.create (Lazy.force h_e2e));
  List.iter
    (fun ep -> ignore (Obs.Window.create (h_handle ep)))
    [ "ping"; "optimize"; "explain"; "stats"; "metrics"; "shutdown" ];
  List.iter
    (fun c ->
      let counter = Runtime.Telemetry.counter c in
      Obs.Window.track c (fun () -> Runtime.Telemetry.value counter))
    slo_counters

(* ----- request evaluation ----- *)

let error code message = Error (code, message)

let optimize_payload (q : P.query) ~deadline =
  let space =
    if q.P.space = P.no_override then None
    else Some (P.space_of_override q.P.space)
  in
  let config =
    { Sram_edp.Framework.flavor = q.P.flavor; method_ = q.P.method_ }
  in
  let t0 = now () in
  match
    Sram_edp.Framework.optimize ?space ~objective:q.P.objective
      ~accounting:q.P.accounting ~w:q.P.w ?deadline ~strategy:q.P.strategy
      ~rng_seed:q.P.rng_seed ~capacity_bits:q.P.capacity_bits ~config ()
  with
  | o ->
    let result = o.Sram_edp.Framework.result in
    Ok
      (J.Obj
         [ ("capacity_bits", J.Int q.P.capacity_bits);
           ("config", J.String (Sram_edp.Framework.config_name config));
           ("strategy", J.String (Opt.Strategy.name q.P.strategy));
           ("checksum", J.String (Opt.Exhaustive.checksum [ result ]));
           ("eval_s", J.Float (now () -. t0));
           ("result", Opt.Exhaustive.result_to_json result) ])
  | exception Opt.Exhaustive.Deadline_exceeded ->
    count "serve.deadline_expired";
    error P.Deadline "deadline passed during the search"
  | exception Invalid_argument msg -> error P.Bad_request msg

(* Same memoized entry as optimize, so explaining a design the server
   already answered costs a cache hit plus a handful of evaluations;
   the attribution is checked to refold bit-exactly before the payload
   leaves the process. *)
let explain_payload (q : P.query) ~deadline =
  let space =
    if q.P.space = P.no_override then None
    else Some (P.space_of_override q.P.space)
  in
  let config =
    { Sram_edp.Framework.flavor = q.P.flavor; method_ = q.P.method_ }
  in
  let t0 = now () in
  match
    Sram_edp.Framework.optimize ?space ~objective:q.P.objective
      ~accounting:q.P.accounting ~w:q.P.w ?deadline ~strategy:q.P.strategy
      ~rng_seed:q.P.rng_seed ~capacity_bits:q.P.capacity_bits ~config ()
  with
  | o ->
    let result = o.Sram_edp.Framework.result in
    let winner = result.Opt.Exhaustive.best in
    let env =
      Array_model.Array_eval.ctx_env
        (Sram_edp.Framework.stage_ctx_for ~flavor:q.P.flavor
           ~accounting:q.P.accounting)
    in
    let at =
      Array_model.Array_eval.attribute env winner.Opt.Exhaustive.geometry
        winner.Opt.Exhaustive.assist
    in
    if not (Array_model.Array_eval.attribution_consistent at) then
      error P.Internal
        "attribution terms do not refold to evaluate's totals bit-for-bit"
    else begin
      let sens =
        Opt.Explain.sensitivity ?space ~objective:q.P.objective ~env
          ~pins:result.Opt.Exhaustive.pins ~winner ()
      in
      Ok
        (J.Obj
           [ ("capacity_bits", J.Int q.P.capacity_bits);
             ("config", J.String (Sram_edp.Framework.config_name config));
             ("checksum", J.String (Opt.Exhaustive.checksum [ result ]));
             ("eval_s", J.Float (now () -. t0));
             ("attribution", Sram_edp.Json_out.of_attribution at);
             ("sensitivity", Sram_edp.Json_out.of_sensitivity sens) ])
    end
  | exception Opt.Exhaustive.Deadline_exceeded ->
    count "serve.deadline_expired";
    error P.Deadline "deadline passed during the search"
  | exception Invalid_argument msg -> error P.Bad_request msg

let handle ~default_deadline_ms ~draining (p : pending) =
  let wait = now () -. p.t_admit in
  Obs.Histogram.observe (Lazy.force h_queue_wait) wait;
  count ("serve.req." ^ P.endpoint_name p.req.P.endpoint);
  let deadline =
    match
      (p.req.P.deadline_ms, default_deadline_ms)
    with
    | Some ms, _ | None, Some ms -> Some (p.t_admit +. (ms /. 1000.0))
    | None, None -> None
  in
  let expired = match deadline with Some d -> now () > d | None -> false in
  let evaluate () =
    if expired then begin
      count "serve.deadline_expired";
      error P.Deadline "deadline passed while queued"
    end
    else
      let h = h_handle (P.endpoint_name p.req.P.endpoint) in
      Obs.Histogram.time h @@ fun () ->
      match p.req.P.endpoint with
      | P.Ping ->
        Ok
          (J.Obj
             [ ("pid", J.Int (Unix.getpid ()));
               ("git_commit", J.String (Persist.Record_log.git_commit ())) ])
      | P.Stats -> Ok (Sram_edp.Json_out.runtime_stats_json ())
      | P.Metrics -> Ok (J.String (Metrics.render ()))
      | P.Shutdown ->
        draining := true;
        Ok (J.Obj [ ("draining", J.Bool true) ])
      | P.Optimize q -> (
        try optimize_payload q ~deadline
        with e ->
          error P.Internal (Printexc.to_string e))
      | P.Explain q -> (
        try explain_payload q ~deadline
        with e ->
          error P.Internal (Printexc.to_string e))
  in
  (* Everything recorded while evaluating — spans from the search
     layers, warn+ log lines — carries this request's trace id, so a
     flight dump or --trace timeline attributes work to requests.
     Span names are static strings: the request path must not allocate
     for observability beyond the event records themselves. *)
  let body =
    match p.tid with
    | None -> evaluate ()
    | Some id ->
      let span =
        match p.req.P.endpoint with
        | P.Ping -> "serve.request.ping"
        | P.Stats -> "serve.request.stats"
        | P.Metrics -> "serve.request.metrics"
        | P.Shutdown -> "serve.request.shutdown"
        | P.Optimize _ -> "serve.request.optimize"
        | P.Explain _ -> "serve.request.explain"
      in
      Obs.Trace.with_context id (fun () ->
          Obs.Trace.with_span span evaluate)
  in
  { P.rid = p.req.P.id; rtrace_id = p.tid; body }

(* ----- socket plumbing ----- *)

let write_string fd s =
  let pos = ref 0 and remaining = ref (String.length s) in
  while !remaining > 0 do
    let n = Unix.write_substring fd s !pos !remaining in
    pos := !pos + n;
    remaining := !remaining - n
  done

(* Frames are small (requests ~200 B, responses a few KB), so writes
   briefly flip the descriptor back to blocking rather than running a
   writable-select state machine; a dead peer surfaces as EPIPE, which
   just drops the connection. *)
let send_raw conn s =
  if conn.alive then begin
    match
      Unix.clear_nonblock conn.fd;
      Fun.protect
        ~finally:(fun () -> try Unix.set_nonblock conn.fd with _ -> ())
        (fun () -> s conn.fd)
    with
    | () -> ()
    | exception Unix.Unix_error _ ->
      Obs.Log.info ~section:"serve" "dropping %s: peer went away mid-response"
        conn.peer;
      conn.alive <- false
  end

let close_conn conn =
  if conn.alive then conn.alive <- false;
  try Unix.close conn.fd with Unix.Unix_error _ -> ()

(* ----- the HTTP shim ----- *)

let http_response status content_type body =
  Printf.sprintf
    "HTTP/1.1 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
    status content_type (String.length body) body

let contains_blank_line s =
  let n = String.length s in
  let rec scan i =
    if i + 1 >= n then false
    else if s.[i] = '\n' && (s.[i + 1] = '\n' || (s.[i + 1] = '\r' && i + 2 < n && s.[i + 2] = '\n'))
    then true
    else scan (i + 1)
  in
  scan 0

let http_request_path s =
  match String.index_opt s '\n' with
  | None -> None
  | Some eol ->
    let line = String.trim (String.sub s 0 eol) in
    (match String.split_on_char ' ' line with
     | _method :: path :: _ -> Some path
     | _ -> None)

(* One scrape per connection: answer the GET and close ("Connection:
   close"), which is all a Prometheus scrape needs. *)
let handle_http conn =
  let s = Frame.peek conn.dec in
  if contains_blank_line s then begin
    count "serve.http_scrapes";
    let resp =
      match http_request_path s with
      | Some "/metrics" ->
        http_response "200 OK"
          "text/plain; version=0.0.4; charset=utf-8" (Metrics.render ())
      | Some "/healthz" -> http_response "200 OK" "text/plain" "ok\n"
      | _ ->
        http_response "404 Not Found" "text/plain"
          "not found (try /metrics)\n"
    in
    send_raw conn (fun fd -> write_string fd resp);
    close_conn conn
  end
  else if String.length s > 8192 then
    (* A request head that long is not a monitoring scrape. *)
    close_conn conn

let listen_unix path =
  (match Unix.stat path with
   | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
   | _ -> failwith (Printf.sprintf "%s exists and is not a socket" path)
   | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  Unix.set_nonblock fd;
  fd

let listen_tcp host port =
  let addr =
    try Unix.inet_addr_of_string host
    with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (addr, port));
  Unix.listen fd 64;
  Unix.set_nonblock fd;
  fd

let peer_name fd =
  match Unix.getpeername fd with
  | Unix.ADDR_UNIX _ -> "unix"
  | Unix.ADDR_INET (a, p) ->
    Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
  | exception Unix.Unix_error _ -> "?"

(* ----- the serve loop ----- *)

let run config =
  if config.socket_path = None && config.tcp = None then
    invalid_arg "Serve.Server.run: no listener configured";
  Obs.Control.set_enabled true;
  if config.observability then init_observability config;
  let old_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let draining = ref false in
  let dump_requested = ref false in
  let old_handlers =
    if not config.install_signals then []
    else
      (( Sys.sigquit,
         Sys.signal Sys.sigquit
           (Sys.Signal_handle (fun _ -> dump_requested := true)) )
      :: List.map
           (fun s ->
             ( s,
               Sys.signal s
                 (Sys.Signal_handle
                    (fun _ ->
                      (* First signal drains; an operator mashing Ctrl-C
                         means now. *)
                      if !draining then Stdlib.exit 130 else draining := true)) ))
           [ Sys.sigint; Sys.sigterm ])
  in
  let listeners =
    (match config.socket_path with
     | Some path -> [ listen_unix path ]
     | None -> [])
    @ (match config.tcp with
       | Some (host, port) -> [ listen_tcp host port ]
       | None -> [])
  in
  let conns = ref [] in
  let queue : pending Queue.t = Queue.create () in
  let connections = ref 0 and served = ref 0 and errors = ref 0 in
  let tid_seq = ref 0 in
  let tid_prefix = "t-" ^ string_of_int (Unix.getpid ()) ^ "-" in
  let gen_tid () =
    incr tid_seq;
    tid_prefix ^ string_of_int !tid_seq
  in
  let read_buf = Bytes.create 65536 in
  (* Returns the response actually sent: {!P.encode_response} answers
     an unencodable payload as [Internal]. *)
  let send conn r =
    let r, payload = P.encode_response r in
    (match r.P.body with
     | Ok _ -> incr served
     | Error _ -> incr errors; count "serve.errors");
    count "serve.responses";
    send_raw conn (fun fd -> Frame.write fd payload);
    r
  in
  let respond conn r = ignore (send conn r) in
  let flight_dump ~reason tid =
    if config.observability then
      match Obs.Flight.dump ~reason ?trace_id:tid () with
      | Some path ->
        Obs.Log.info ~section:"serve" "flight dump (%s): %s" reason path
      | None -> ()
  in
  let admit conn (req : P.request) =
    count "serve.requests";
    (* Every response to a parsed request carries a trace id: the
       client's when supplied, a server-generated one otherwise. *)
    let tid =
      match req.P.trace_id with
      | Some _ as t -> t
      | None -> if config.observability then Some (gen_tid ()) else None
    in
    if !draining then
      respond conn
        { P.rid = req.P.id;
          rtrace_id = tid;
          body = error P.Shutting_down "server is draining" }
    else if Queue.length queue >= config.max_queue then begin
      count "serve.rejected_busy";
      respond conn
        { P.rid = req.P.id;
          rtrace_id = tid;
          body =
            error P.Busy
              (Printf.sprintf "admission queue full (%d pending)"
                 config.max_queue) }
    end
    else Queue.add { conn; req; tid; t_admit = now () } queue
  in
  (* Parse every complete frame buffered on the connection.  A framing
     error (oversized, checksum) means the byte stream can no longer be
     trusted: answer once and drop the connection.  A well-framed but
     malformed request only fails that request. *)
  let drain_frames conn =
    let continue = ref true in
    while !continue && conn.alive do
      match Frame.next conn.dec with
      | Ok None -> continue := false
      | Ok (Some payload) -> (
        match Result.bind (J.of_string payload) P.request_of_json with
        | Ok req -> admit conn req
        | Error e ->
          count "serve.bad_request";
          respond conn
            { P.rid = 0; rtrace_id = None; body = error P.Bad_request e }
        | exception _ ->
          count "serve.bad_request";
          respond conn
            { P.rid = 0;
              rtrace_id = None;
              body = error P.Bad_request "unparseable request" })
      | Error e ->
        count "serve.bad_frame";
        respond conn
          { P.rid = 0;
            rtrace_id = None;
            body = error P.Bad_request (Frame.error_to_string e) };
        close_conn conn;
        continue := false
    done
  in
  let dispatch conn =
    (match conn.mode with
     | Sniff ->
       let s = Frame.peek conn.dec in
       if String.length s >= 4 then
         conn.mode <- (if String.sub s 0 4 = "GET " then Http else Frames)
     | Frames | Http -> ());
    match conn.mode with
    | Sniff -> ()
    | Frames -> drain_frames conn
    | Http -> handle_http conn
  in
  let pump_conn conn =
    let continue = ref true in
    while !continue && conn.alive do
      match Unix.read conn.fd read_buf 0 (Bytes.length read_buf) with
      | 0 ->
        if conn.mode <> Http && Frame.buffered conn.dec > 0 then
          Obs.Log.info ~section:"serve"
            "%s closed mid-frame (%d bytes undelivered)" conn.peer
            (Frame.buffered conn.dec);
        close_conn conn;
        continue := false
      | n ->
        Frame.feed conn.dec read_buf n;
        if n < Bytes.length read_buf then continue := false
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        continue := false
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error _ ->
        close_conn conn;
        continue := false
    done;
    if conn.alive then dispatch conn
  in
  let accept_all listener =
    let continue = ref true in
    while !continue do
      match Unix.accept ~cloexec:true listener with
      | fd, _ ->
        if !draining then (try Unix.close fd with Unix.Unix_error _ -> ())
        else begin
          Unix.set_nonblock fd;
          incr connections;
          count "serve.connections";
          conns :=
            { fd;
              dec = Frame.decoder ~max_len:config.max_frame ();
              peer = peer_name fd;
              mode = Sniff;
              alive = true }
            :: !conns
        end
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        continue := false
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done
  in
  let pump timeout =
    conns := List.filter (fun c -> c.alive) !conns;
    let watched = listeners @ List.map (fun c -> c.fd) !conns in
    match Unix.select watched [] [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready, _, _ ->
      List.iter
        (fun fd ->
          if List.mem fd listeners then accept_all fd
          else
            match List.find_opt (fun c -> c.fd = fd) !conns with
            | Some conn -> pump_conn conn
            | None -> ())
        ready
  in
  Obs.Log.info ~section:"serve" "serving (queue %d, default deadline %s)"
    config.max_queue
    (match config.default_deadline_ms with
     | Some ms -> Printf.sprintf "%.0f ms" ms
     | None -> "none");
  while not (!draining && Queue.is_empty queue) do
    pump (if Queue.is_empty queue then 0.25 else 0.0);
    if config.observability then Obs.Window.maybe_rotate ();
    if !dump_requested then begin
      dump_requested := false;
      flight_dump ~reason:"sigquit" None
    end;
    match Queue.take_opt queue with
    | None -> ()
    | Some p ->
      let r =
        send p.conn
          (handle ~default_deadline_ms:config.default_deadline_ms ~draining p)
      in
      let e2e = now () -. p.t_admit in
      Obs.Histogram.observe (Lazy.force h_e2e) e2e;
      (* Postmortems: a deadline miss or internal error dumps the
         flight ring; a response over the slow threshold dumps its span
         tree and logs a warning. *)
      (match r.P.body with
       | Error (P.Deadline, _) -> flight_dump ~reason:"deadline" p.tid
       | Error (P.Internal, _) -> flight_dump ~reason:"internal" p.tid
       | _ -> ());
      (match config.slow_ms with
       | Some ms when e2e *. 1000.0 > ms ->
         Obs.Log.warn ~section:"serve"
           "slow request %s (%s): %.1f ms > %.1f ms"
           (match p.tid with Some id -> id | None -> "-")
           (P.endpoint_name p.req.P.endpoint)
           (e2e *. 1000.0) ms;
         flight_dump ~reason:"slow" p.tid
       | _ -> ())
  done;
  List.iter close_conn !conns;
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) listeners;
  (match config.socket_path with
   | Some path -> (try Unix.unlink path with Unix.Unix_error _ -> ())
   | None -> ());
  List.iter (fun (s, h) -> Sys.set_signal s h) old_handlers;
  Sys.set_signal Sys.sigpipe old_pipe;
  Obs.Log.info ~section:"serve" "drained: %d connections, %d served, %d errors"
    !connections !served !errors;
  { connections = !connections; served = !served; errors = !errors }
