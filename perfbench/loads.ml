(* The three workloads against the real sram_opt binary: set-up, then a
   closed-loop timed phase.  Nothing here runs the program in-process. *)

module P = Serve.Protocol
module J = Persist.Json

let now = Obs.Clock.now

type outcome = {
  setup_s : float array;  (** one entry per set-up repetition *)
  latencies : float array;  (** seconds, one per answered request *)
  wall_s : float;  (** the timed phase *)
  cpu_s : float;  (** user + sys of the program under test, timed phase *)
  client_cpu_s : float;  (** the load generator's own, timed phase *)
  peak_rss_kb : int;
  queue_wait_p50_s : float;  (** served-novel; 0 for one-shots *)
  cache_log_bytes : int;  (** oneshot-cachedir; 0 otherwise *)
  tally : Tally.t;
  queries : P.query list;  (** the distinct timed queries *)
}

exception Setup_failed of string

let setup_fail fmt = Printf.ksprintf (fun s -> raise (Setup_failed s)) fmt

(* ----- set-up repetitions ----- *)

(* Set-up is measured [setup_reps] times: once before the timed phase,
   as the set-up it is, then repeated at even intervals through the
   phase, between two requests.  The host's speed changes over seconds,
   so repeats spread over the whole phase give a median that follows
   the host no more closely than the latencies do, where back-to-back
   repeats would measure one stretch of it.  The wall time, children's
   CPU and generator CPU the repeats take are left out of the timed
   phase, whose end moves back by as much. *)
let setup_reps = 10

type repeats = {
  setup : int -> float;  (** set-up number [k], returning its duration *)
  every_s : float;  (** of timed phase between two repeats *)
  mutable done_s : float list;  (** durations so far, newest first *)
  mutable wall_s : float;
  mutable children_cpu_s : float;
  mutable self_cpu_s : float;
}

let first_setup ~seconds setup =
  let d = setup 0 in
  { setup;
    every_s = seconds /. float_of_int setup_reps;
    done_s = [ d ];
    wall_s = 0.0;
    children_cpu_s = 0.0;
    self_cpu_s = 0.0 }

let repeat r =
  let t0 = now () and c0 = Proc.children_cpu_s () and s0 = Proc.self_cpu_s () in
  r.done_s <- r.setup (List.length r.done_s) :: r.done_s;
  r.wall_s <- r.wall_s +. (now () -. t0);
  r.children_cpu_s <- r.children_cpu_s +. (Proc.children_cpu_s () -. c0);
  r.self_cpu_s <- r.self_cpu_s +. (Proc.self_cpu_s () -. s0)

(* The timed phase's clock: wall time since [t_start] less the repeats. *)
let elapsed r ~t_start = now () -. t_start -. r.wall_s

(* Between two timed requests: the repeat that is due, if any. *)
let between r ~t_start =
  let n = List.length r.done_s in
  if n < setup_reps && elapsed r ~t_start >= float_of_int n *. r.every_s then repeat r

(* After the phase: the repeats it ended too early for. *)
let all_setups r =
  while List.length r.done_s < setup_reps do
    repeat r
  done;
  Array.of_list (List.rev r.done_s)

(* The phase runs for the requested seconds and at least until p90 is
   defined. *)
let more r ~t_start ~seconds (tally : Tally.t) =
  elapsed r ~t_start < seconds || tally.Tally.attempted < Stat.min_tail_samples

let distinct_queries tbl = Hashtbl.fold (fun _ q acc -> q :: acc) tbl []

(* ----- one-shots ----- *)

let oneshot_checksum out =
  match J.of_string out with Ok j -> J.string_field j "checksum" | Error _ -> None

let oneshot_timed ctx ~seconds ~(stream : Gen.stream) ~extra r =
  let tally = Tally.create () and lat = Stat.Vec.create () in
  let queries = Hashtbl.create 256 in
  let cpu0 = Proc.children_cpu_s () and self0 = Proc.self_cpu_s () in
  let t_start = now () in
  while more r ~t_start ~seconds tally do
    between r ~t_start;
    let q = stream.Gen.next () in
    let key = Gen.key q in
    Hashtbl.replace queries key q;
    match Proc.run ctx (Gen.cli_args q @ extra) with
    | Error e -> Tally.error tally e
    | Ok (dt, out) -> (
      Stat.Vec.push lat dt;
      match oneshot_checksum out with
      | Some checksum -> Tally.answer tally ~key ~checksum
      | None -> Tally.error tally "optimize --json printed no checksum")
  done;
  let wall_s = elapsed r ~t_start in
  let cpu_s = Proc.children_cpu_s () -. cpu0 -. r.children_cpu_s in
  let client_cpu_s = Proc.self_cpu_s () -. self0 -. r.self_cpu_s in
  { setup_s = all_setups r;
    latencies = Stat.Vec.to_array lat;
    wall_s;
    cpu_s;
    client_cpu_s;
    peak_rss_kb = Proc.children_maxrss_kb ();
    queue_wait_p50_s = 0.0;
    cache_log_bytes = 0;
    tally;
    queries = distinct_queries queries }

let run_setup ctx args =
  match Proc.run ctx args with
  | Ok (dt, _) -> dt
  | Error e -> setup_fail "set-up run of sram_opt %s: %s" (String.concat " " args) e

(* Set-up: one untimed warm-up process (an LVT point, outside the timed
   stream). *)
let oneshot_cold ctx ~seconds ~(stream : Gen.stream) =
  let warm = Gen.cli_args (List.hd stream.Gen.setup) in
  oneshot_timed ctx ~seconds ~stream ~extra:[]
    (first_setup ~seconds (fun _ -> run_setup ctx warm))

let dir_bytes dir =
  Array.fold_left
    (fun acc f -> acc + (Unix.stat (Filename.concat dir f)).Unix.st_size)
    0 (Sys.readdir dir)

let copy_dir src dst =
  Unix.mkdir dst 0o755;
  Array.iter
    (fun f ->
      Out_channel.with_open_bin (Filename.concat dst f) (fun oc ->
          output_string oc (Proc.read_file (Filename.concat src f))))
    (Sys.readdir src)

(* The seeded cache directory a replay starts from. *)
let replay_seed_dir = "replay-seed"

(* Set-up: seed a fresh cache directory with the binary under test, so
   the log headers carry this build's commit and the timed requests
   read the pins instead of discarding them.  The timed requests share
   the first; each repeat seeds a directory of its own. *)
let oneshot_cachedir ctx ~seconds ~(stream : Gen.stream) =
  let seed = Gen.cli_args (List.hd stream.Gen.setup) in
  let dir k = Printf.sprintf "cache-%d" k in
  let r = first_setup ~seconds (fun k -> run_setup ctx (seed @ [ "--cache-dir"; dir k ])) in
  copy_dir (dir 0) replay_seed_dir;
  let o = oneshot_timed ctx ~seconds ~stream ~extra:[ "--cache-dir"; dir 0 ] r in
  { o with cache_log_bytes = dir_bytes (dir 0) }

(* ----- served ----- *)

(* Set-up: spawn, readiness and the warm-up queries.  Returns its
   duration with the live server. *)
let served_setup ctx ~(stream : Gen.stream) ~socket =
  let t0 = now () in
  (try Sys.remove socket with Sys_error _ -> ());
  let pid = Proc.spawn_server ctx ~socket in
  let conn =
    match Proc.await_ready ~pid ~socket ~timeout_s:30.0 with
    | Ok c -> c
    | Error e -> setup_fail "%s" e
  in
  List.iter
    (fun q ->
      match Proc.call conn (P.Optimize q) with
      | Ok _ -> ()
      | Error e -> setup_fail "warm-up query: %s" e)
    stream.Gen.setup;
  (now () -. t0, pid, conn)

let check tally ~key ~id = function
  | Error e -> Tally.error tally ("bad response: " ^ e)
  | Ok r when r.P.rid <> id -> Tally.error tally "response id mismatch"
  | Ok { P.body = Error (code, msg); _ } ->
    Tally.error tally (P.error_code_to_string code ^ ": " ^ msg)
  | Ok { P.body = Ok payload; _ } -> (
    match Proc.checksum_of_payload payload with
    | Ok checksum -> Tally.answer tally ~key ~checksum
    | Error e -> Tally.error tally e)

exception Transport of string

let decode frame = Result.bind (J.of_string frame) P.response_of_json

let request_frame ~id q =
  J.to_string
    (P.request_to_json { P.id; deadline_ms = None; trace_id = None; endpoint = P.Optimize q })

(* One connection, one request in flight; a request's latency runs from
   writing its frame to decoding its response. *)
let served_timed (conn : Proc.conn) ~seconds ~next ~tally ~lat r ~t_start =
  let id = ref 0 in
  while more r ~t_start ~seconds tally do
    between r ~t_start;
    let q = next () in
    incr id;
    let frame = request_frame ~id:!id q in
    let t0 = now () in
    match
      Serve.Frame.write conn.Proc.fd frame;
      Serve.Frame.read conn.Proc.fd
    with
    | exception Unix.Unix_error (e, _, _) -> raise (Transport (Unix.error_message e))
    | Error e -> raise (Transport (Serve.Frame.error_to_string e))
    | Ok frame ->
      let resp = decode frame in
      Stat.Vec.push lat (now () -. t0);
      check tally ~key:(Gen.key q) ~id:!id resp
  done

(* The first set-up's server runs the timed phase; each repeat starts a
   server on a socket of its own and stops it. *)
let served ctx ~seconds ~(stream : Gen.stream) =
  let live = ref None in
  let r =
    first_setup ~seconds (fun k ->
        let t, pid, conn = served_setup ctx ~stream ~socket:(Printf.sprintf "s%d.sock" k) in
        if k = 0 then live := Some (pid, conn) else Proc.stop_server pid conn;
        t)
  in
  let pid, conn = Option.get !live in
  let tally = Tally.create () and lat = Stat.Vec.create () in
  let queries = Hashtbl.create 1024 in
  let next () =
    let q = stream.Gen.next () in
    Hashtbl.replace queries (Gen.key q) q;
    q
  in
  let cpu0 = Proc.cpu_s pid and self0 = Proc.self_cpu_s () in
  let t_start = now () in
  (match served_timed conn ~seconds ~next ~tally ~lat r ~t_start with
   | () -> ()
   | exception Transport e -> Tally.error tally ("transport: " ^ e));
  let wall_s = elapsed r ~t_start in
  let cpu_s = Proc.cpu_s pid -. cpu0 in
  let client_cpu_s = Proc.self_cpu_s () -. self0 -. r.self_cpu_s in
  let peak_rss_kb = Proc.hwm_kb pid in
  let queue_wait_p50_s = Option.value ~default:0.0 (Proc.queue_wait_p50_s conn) in
  Proc.stop_server pid conn;
  { setup_s = all_setups r;
    latencies = Stat.Vec.to_array lat;
    wall_s;
    cpu_s;
    client_cpu_s;
    peak_rss_kb;
    queue_wait_p50_s;
    cache_log_bytes = 0;
    tally;
    queries = distinct_queries queries }

let run ctx workload ~seconds ~stream =
  match workload with
  | Gen.Oneshot_cold -> oneshot_cold ctx ~seconds ~stream
  | Gen.Oneshot_cachedir -> oneshot_cachedir ctx ~seconds ~stream
  | Gen.Served_novel -> served ctx ~seconds ~stream

(* Wall time of [sram_opt --version], which builds its version string
   by forking [git rev-parse]. *)
let startup_s ctx =
  Stat.median (Array.init 10 (fun _ -> run_setup ctx [ "--version" ]))
