(* The program under test as child processes: a pinned environment,
   one-shot runs, the server and its readiness, and /proc accounting. *)

module P = Serve.Protocol
module J = Persist.Json

external children_maxrss_kb : unit -> int = "perfbench_children_maxrss_kb"
external clk_tck : unit -> int = "perfbench_clk_tck"

let now = Obs.Clock.now

(* Variables that change what sram_opt does or how its runtime behaves:
   fault injection, log level, GC settings, and the temp directory,
   which is pointed at the run's private directory instead. *)
let scrubbed = [ "SRAM_OPT_FAULTS"; "SRAM_OPT_LOG"; "OCAMLRUNPARAM"; "TMPDIR" ]

type ctx = {
  bin : string;
  env : string array;
  null_in : Unix.file_descr;
  log : Unix.file_descr;  (** children's stderr (and the server's stdout) *)
}

let make_ctx ~bin ~run_dir =
  let keep kv =
    not (List.exists (fun v -> String.starts_with ~prefix:(v ^ "=") kv) scrubbed)
  in
  let env =
    Array.append
      (Array.of_list (List.filter keep (Array.to_list (Unix.environment ()))))
      [| "TMPDIR=" ^ run_dir |]
  in
  { bin;
    env;
    null_in = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0;
    log =
      Unix.openfile
        (Filename.concat run_dir "children.log")
        [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ]
        0o644 }

(* Children still running, killed and reaped on any exit path. *)
let live : int list ref = ref []

let rec waitpid_retry flags pid =
  try Unix.waitpid flags pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry flags pid

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (waitpid_retry [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let read_all fd =
  let buf = Buffer.create 4096 and b = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd b 0 (Bytes.length b) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf b 0 n;
      go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ();
  Buffer.contents buf

(* One sram_opt invocation, run to completion: wall seconds from spawn
   to reap, exit status and standard output. *)
let run ctx args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let t0 = now () in
  match
    Unix.create_process_env ctx.bin
      (Array.of_list ("sram_opt" :: args))
      ctx.env ctx.null_in wr ctx.log
  with
  | exception Unix.Unix_error (e, _, _) ->
    Unix.close rd;
    Unix.close wr;
    Error ("spawn: " ^ Unix.error_message e)
  | pid ->
    Unix.close wr;
    let out = read_all rd in
    Unix.close rd;
    let _, status = waitpid_retry [] pid in
    let dt = now () -. t0 in
    (match status with
     | Unix.WEXITED 0 -> Ok (dt, out)
     | Unix.WEXITED n -> Error (Printf.sprintf "exit %d" n)
     | Unix.WSIGNALED s | Unix.WSTOPPED s -> Error (Printf.sprintf "signal %d" s))

let children_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime

let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* utime + stime of a live process, from /proc/<pid>/stat: fields 14
   and 15, counted after the parenthesised command name. *)
let cpu_s pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let i = String.rindex s ')' in
  let f =
    Array.of_list
      (String.split_on_char ' ' (String.sub s (i + 2) (String.length s - i - 2)))
  in
  float_of_int (int_of_string f.(11) + int_of_string f.(12))
  /. float_of_int (clk_tck ())

(* The host's steal and total ticks over all CPUs, from the first line of
   /proc/stat: time the hypervisor gave this machine's CPUs to others. *)
let steal_and_total_ticks () =
  match String.split_on_char ' ' (List.hd (String.split_on_char '\n' (read_file "/proc/stat"))) with
  | "cpu" :: fields -> (
    (* user nice system idle iowait irq softirq steal; guest time is
       already counted in user and nice. *)
    match List.filteri (fun i _ -> i < 8) (List.filter_map int_of_string_opt fields) with
    | [ _; _; _; _; _; _; _; steal ] as ticks -> (steal, List.fold_left ( + ) 0 ticks)
    | _ -> (0, 0))
  | _ -> (0, 0)
  | exception Sys_error _ -> (0, 0)

(* Peak resident set of a live process in KiB (VmHWM). *)
let hwm_kb pid =
  read_file (Printf.sprintf "/proc/%d/status" pid)
  |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         match String.split_on_char ':' line with
         | [ "VmHWM"; v ] ->
           Scanf.sscanf (String.trim v) "%d kB" (fun kb -> Some kb)
         | _ -> None)
  |> Option.value ~default:0

(* ----- the server ----- *)

type conn = { fd : Unix.file_descr; mutable next_id : int }

let call conn endpoint =
  let id = conn.next_id in
  conn.next_id <- id + 1;
  let req = { P.id; deadline_ms = None; trace_id = None; endpoint } in
  match
    Serve.Frame.write conn.fd (J.to_string (P.request_to_json req));
    Serve.Frame.read conn.fd
  with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | Error e -> Error (Serve.Frame.error_to_string e)
  | Ok frame -> (
    match Result.bind (J.of_string frame) P.response_of_json with
    | Error e -> Error ("bad response: " ^ e)
    | Ok r when r.P.rid <> id -> Error "response id mismatch"
    | Ok { P.body = Ok payload; _ } -> Ok payload
    | Ok { P.body = Error (code, msg); _ } ->
      Error (P.error_code_to_string code ^ ": " ^ msg))

(* A reply that never comes fails the request instead of hanging the
   run. *)
let reply_timeout_s = 60.0

let connect socket =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () ->
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO reply_timeout_s;
    Ok { fd; next_id = 1 }
  | exception Unix.Unix_error (e, _, _) ->
    Unix.close fd;
    Error (Unix.error_message e)

let close conn = try Unix.close conn.fd with Unix.Unix_error _ -> ()

let spawn_server ctx ~socket =
  let pid =
    Unix.create_process_env ctx.bin
      [| "sram_opt"; "serve"; "--jobs"; "1"; "--socket"; socket;
         "--flight-dir"; "flight" |]
      ctx.env ctx.null_in ctx.log ctx.log
  in
  live := pid :: !live;
  pid

(* Readiness by connect + ping at a fixed 1 ms poll: a growing backoff
   would round the measured set-up time up by its last sleep. *)
let ready_poll_s = 0.001

let await_ready ~pid ~socket ~timeout_s =
  let deadline = now () +. timeout_s in
  let rec attempt last =
    if now () > deadline then Error ("server not ready: " ^ last)
    else
      match waitpid_retry [ Unix.WNOHANG ] pid with
      | p, _ when p = pid -> Error "server exited during start-up"
      | _ -> (
        match connect socket with
        | Error e ->
          Unix.sleepf ready_poll_s;
          attempt e
        | Ok conn -> (
          match call conn P.Ping with
          | Ok _ -> Ok conn
          | Error e ->
            close conn;
            Unix.sleepf ready_poll_s;
            attempt e))
  in
  attempt "no attempt"

let stop_server pid conn =
  ignore (call conn P.Shutdown);
  close conn;
  let deadline = now () +. 10.0 in
  let rec wait () =
    match waitpid_retry [ Unix.WNOHANG ] pid with
    | p, _ when p = pid -> ()
    | _ when now () > deadline ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (waitpid_retry [] pid)
    | _ ->
      Unix.sleepf ready_poll_s;
      wait ()
  in
  wait ();
  live := List.filter (( <> ) pid) !live

(* The timed phase's median queue wait: the server's trailing 10 s
   window of [serve.queue_wait], read right after the phase, which
   always lasts longer than the window. *)
let queue_wait_p50_s conn =
  match call conn P.Stats with
  | Error _ -> None
  | Ok stats ->
    let ( >>= ) = Option.bind in
    let find field v l =
      J.to_list l >>= List.find_opt (fun x -> J.string_field x field = Some v)
    in
    J.member "windows" stats >>= J.member "histograms"
    >>= find "name" "serve.queue_wait" >>= J.member "windows" >>= find "window" "10s"
    >>= fun w -> J.float_field w "p50_s"

let checksum_of_payload payload =
  match Option.bind (J.member "result" payload) Opt.Exhaustive.result_of_json with
  | Some r -> Ok (Opt.Exhaustive.checksum [ r ])
  | None -> Error "optimize payload: result does not decode"
