(** Blocking client for the serving protocol — the library under the
    [sram_opt query] CLI, the load-generator bench and the tests.

    One connection carries one outstanding request at a time ({!call}
    writes, then blocks for the matching response); concurrency comes
    from opening several clients, which is exactly what the load
    generator does.  All entry points return [Error] with a readable
    reason instead of raising on transport failures. *)

type t

val connect :
  ?tcp:string * int -> ?socket_path:string -> unit -> (t, string) result
(** Connect over the Unix-domain path, or TCP when [tcp] is given
    instead.  Exactly one of the two must be provided. *)

val wait_ready : socket_path:string -> unit -> (t, string) result
(** {!connect} to a Unix socket, retrying with backoff until the server
    answers a ping or 10 s elapse — for callers that just started the
    server process. *)

val close : t -> unit

val call :
  ?deadline_ms:float -> ?trace_id:string -> t -> Protocol.endpoint ->
  (Protocol.response, string) result
(** Send one request (ids are assigned per connection) and block for
    its response.  [Error] covers transport and framing failures; a
    server-side failure comes back as [Ok] with an error body.
    [trace_id] names the request in the server's spans, logs and
    flight dumps; the response's [rtrace_id] echoes it (or carries the
    server-generated id when omitted). *)

(** {2 Typed conveniences} — unwrap [Ok] payloads, folding protocol
    errors into the [Error] string. *)

val ping : t -> (Persist.Json.t, string) result

val stats : t -> (Persist.Json.t, string) result

val metrics : t -> (string, string) result
(** The Prometheus text exposition ({!Metrics.render}), fetched over
    the frame protocol (the [GET /metrics] HTTP shim serves the same
    string). *)

val shutdown : t -> (unit, string) result

type answer = {
  capacity_bits : int;
  config : string;       (** e.g. "6T-HVT-M2" *)
  checksum : string;     (** {!Opt.Exhaustive.checksum} of the winner *)
  eval_s : float;        (** server-side handling time *)
  result : Opt.Exhaustive.result;
  payload : Persist.Json.t;  (** the payload as the server sent it *)
}

val explain :
  ?deadline_ms:float -> ?trace_id:string -> t -> Protocol.query ->
  (Persist.Json.t, string) result
(** The winner's attribution / sensitivity payload for [query], raw:
    callers print or pick fields rather than decode a record.  The
    server computes it from the same optimize memo, so explaining an
    already-served design is a cache hit. *)

val optimize :
  ?deadline_ms:float -> ?trace_id:string -> t -> Protocol.query ->
  (answer, string) result
(** The decoded winner is bit-exact: the wire codec preserves every
    float bit, so [answer.result] equals what the server computed and
    [checksum] re-derives locally. *)
