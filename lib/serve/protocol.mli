(** The serving wire protocol: request / response values and their
    compact-JSON codecs ({!Persist.Json}), independent of any socket.

    A request names an endpoint, an id the response echoes (so a client
    can pipeline), and an optional deadline relative to the moment the
    server admits the request.  Responses carry either an endpoint-
    specific JSON payload or a typed error.  See DESIGN.md §9 for the
    frame layout and endpoint semantics. *)

(** Overrides of the search-space grids; [None] means the corresponding
    axis of {!Opt.Space.default}. *)
type space_override = {
  vssc : float array option;   (** volts *)
  nr : int array option;
  n_pre : int array option;
  n_wr : int array option;
}

val no_override : space_override
val space_of_override : space_override -> Opt.Space.t
val reduced_override : space_override
(** {!Opt.Space.reduced} spelled as an override (the tests' and load
    generator's staple — small enough to answer in milliseconds). *)

type query = {
  capacity_bits : int;
  flavor : Finfet.Library.flavor;
  method_ : Opt.Space.method_;
  strategy : Opt.Strategy.t;
  (** search engine ({!Opt.Strategy.run} dispatch).  On the wire the
      ["method"] field speaks {!Opt.Strategy.parse_method}'s grammar
      (["m2"], ["nsga2"], ["m1:nsga2"], ...); an explicit ["strategy"]
      field wins.  An unknown spelling is a decode error — the server
      answers a typed [bad_request] and keeps the connection open. *)
  rng_seed : int;
  (** seed for the stochastic engines (wire field ["rng_seed"]); same
      seed, same answer, bit for bit *)
  objective : Opt.Objective.t;
  accounting : Array_model.Array_eval.accounting;
  w : int;
  space : space_override;
}

val default_query : query
(** 4KB, HVT, M2, exhaustive strategy (seed 42), EDP, strict
    accounting, w = 64, no override. *)

type endpoint =
  | Ping                (** liveness probe; payload echoes the server pid *)
  | Optimize of query   (** one co-optimization; payload is the winner *)
  | Explain of query
  (** the winner's bit-exact attribution and per-axis sensitivity; the
      search itself reuses the optimize memo, so explaining a design
      already served is cheap *)
  | Stats               (** runtime telemetry snapshot *)
  | Metrics             (** Prometheus text exposition (payload: one string) *)
  | Shutdown            (** ack, then drain and exit the serve loop *)

val endpoint_name : endpoint -> string
(** "ping" / "optimize" / "explain" / "stats" / "metrics" / "shutdown" —
    histogram and counter labels. *)

type request = {
  id : int;
  deadline_ms : float option;  (** admission-relative; None = server default *)
  trace_id : string option;
  (** client-chosen request-scoped id; the server generates one when
      absent, tags the request's spans and log lines with it, and
      echoes it in the response either way *)
  endpoint : endpoint;
}

type error_code =
  | Bad_request     (** unparseable or malformed request *)
  | Busy            (** admission queue full — retry later *)
  | Deadline        (** deadline passed before or during evaluation *)
  | Shutting_down   (** server is draining; no new work accepted *)
  | Internal        (** evaluation raised; message carries the exn text *)

val error_code_to_string : error_code -> string

type response = {
  rid : int;  (** echoes {!request.id} *)
  rtrace_id : string option;
  (** the trace id this request ran under (client-supplied or
      server-generated); [None] only when the request never reached the
      handler (e.g. an unparseable frame) *)
  body : (Persist.Json.t, error_code * string) result;
}

(** {2 Codecs} — total decoders returning [Error] with a reason on any
    shape mismatch; [of_json (to_json v)] reproduces [v] including
    every float bit (QCheck-verified).  A decoded query has also passed
    {!Opt.Space.check}: a refused one is an [Error] of the form
    ["bad <field>: <reason>"], where the field is [capacity_bits], [w]
    or [space.<axis>] ([vssc_v], [nr], [n_pre], [n_wr]). *)

val request_to_json : request -> Persist.Json.t
val request_of_json : Persist.Json.t -> (request, string) result
val response_to_json : response -> Persist.Json.t
val response_of_json : Persist.Json.t -> (response, string) result

val encode_response : response -> response * string
(** The response as a compact frame payload, with the response that
    payload encodes.  A body with no JSON form (a non-finite float) is
    answered as a typed [Internal] error instead, so a payload that
    cannot be encoded never raises out of the server. *)
