type level = Quiet | Error | Warn | Info | Debug

let severity = function
  | Quiet -> -1
  | Error -> 0
  | Warn -> 1
  | Info -> 2
  | Debug -> 3

let to_string = function
  | Quiet -> "quiet"
  | Error -> "error"
  | Warn -> "warn"
  | Info -> "info"
  | Debug -> "debug"

let of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "quiet" | "off" | "none" -> Some Quiet
  | "error" -> Some Error
  | "warn" | "warning" -> Some Warn
  | "info" -> Some Info
  | "debug" -> Some Debug
  | _ -> None

let initial =
  match Sys.getenv_opt "SRAM_OPT_LOG" with
  | Some s -> (match of_string s with Some l -> l | None -> Warn)
  | None -> Warn

let current = Atomic.make initial

let set_level l = Atomic.set current l
let enabled l = severity l <= severity (Atomic.get current)

let lock = Mutex.create ()
let channel = ref stderr

let set_channel c =
  Mutex.lock lock;
  channel := c;
  Mutex.unlock lock

(* Secondary consumer of warn+ lines, independent of the console level:
   the flight recorder captures recent warnings/errors even when the
   console is quiet.  A ref, not a direct call into Flight, so Log stays
   at the bottom of the dependency order. *)
let sink : (float -> level -> string -> string -> string -> unit) option ref =
  ref None

let set_sink s =
  Mutex.lock lock;
  sink := s;
  Mutex.unlock lock

let t0 = Clock.now ()

let emit l section msg =
  let ts = Clock.now () -. t0 in
  let ctx = match Trace.get_context () with Some id -> id | None -> "" in
  Mutex.lock lock;
  if enabled l then begin
    if ctx = "" then
      Printf.fprintf !channel "[%8.3f] %-5s %s: %s\n%!" ts (to_string l)
        section msg
    else
      Printf.fprintf !channel "[%8.3f] %-5s %s: %s [trace_id=%s]\n%!" ts
        (to_string l) section msg ctx
  end;
  (match !sink with
  | Some f when severity l <= severity Warn -> f ts l section msg ctx
  | _ -> ());
  Mutex.unlock lock

let msg l ~section fmt =
  Printf.ksprintf
    (fun s -> if enabled l || !sink <> None then emit l section s)
    fmt

let warn ~section fmt = msg Warn ~section fmt
let info ~section fmt = msg Info ~section fmt
let debug ~section fmt = msg Debug ~section fmt
