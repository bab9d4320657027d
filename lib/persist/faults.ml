(* Deterministic fault injection for the persistence layer.

   Faults are armed per process (via [arm], the CLI, or the
   SRAM_OPT_FAULTS env var) and fire at record-write boundaries in
   Record_log, counted over *data* records only (headers are exempt so
   "kill after record N" means N application records regardless of how
   many logs were opened).  [Injected] models a process death: once it
   fires the layer goes sticky-dead and every later append also raises,
   so a test that keeps running after the "crash" cannot quietly keep
   journaling. *)

exception Injected of string

type fault =
  | Short_write of int  (* write only a prefix of record N, then die *)
  | Enospc of int       (* fail record N's write with ENOSPC, once *)
  | Kill of int         (* die at the boundary after record N *)

let mutex = Mutex.create ()
let armed : fault list ref = ref []
let record_count = ref 0
let dead = ref false

let injected_counter = Runtime.Telemetry.counter "persist.faults.injected"

let arm f = Mutex.protect mutex (fun () -> armed := f :: !armed)

let disarm_all () =
  Mutex.protect mutex (fun () ->
      armed := [];
      record_count := 0;
      dead := false)

let parse s =
  match String.index_opt s ':' with
  | None -> Error (Printf.sprintf "bad fault spec %S (want kind:N)" s)
  | Some i ->
    let kind = String.sub s 0 i in
    let arg = String.sub s (i + 1) (String.length s - i - 1) in
    (match int_of_string_opt arg with
    | None -> Error (Printf.sprintf "bad fault count in %S" s)
    | Some n -> (
      match kind with
      | "short" -> Ok (Short_write n)
      | "enospc" -> Ok (Enospc n)
      | "kill" -> Ok (Kill n)
      | _ -> Error (Printf.sprintf "unknown fault kind %S" kind)))

let env_var = "SRAM_OPT_FAULTS"

let load_env () =
  match Sys.getenv_opt env_var with
  | None | Some "" -> ()
  | Some spec ->
    String.split_on_char ',' spec
    |> List.iter (fun s ->
           match parse (String.trim s) with
           | Ok f -> arm f
           | Error msg -> Obs.Log.warn ~section:"persist" "%s: %s" env_var msg)

let die msg =
  dead := true;
  Runtime.Telemetry.incr injected_counter;
  raise (Injected msg)

(* Called by Record_log before writing data record [n] (0-based count
   of data records across the process).  Returns [Some ()] if the
   record should be torn: the log writes a prefix of the frame, then
   calls [short_write_die]. *)
let on_record () =
  Mutex.protect mutex (fun () ->
      if !dead then die "persistence layer already killed by injected fault";
      let n = !record_count in
      record_count := n + 1;
      let short = ref None in
      let keep =
        List.filter
          (fun f ->
            match f with
            | Enospc k when k = n ->
              Runtime.Telemetry.incr injected_counter;
              (* The genuine exception a full disk produces, so tests
                 exercise the same Unix_error -> Sys_error unification
                 real failures take through Record_log. *)
              raise
                (Unix.Unix_error (Unix.ENOSPC, "write", "injected fault"))
            | Short_write k when k = n ->
              short := Some f;
              false
            | _ -> true)
          !armed
      in
      armed := keep;
      match !short with
      | Some (Short_write _) -> Some ()
      | _ -> None)

(* Called by Record_log after data record [n] is fully on disk. *)
let after_record () =
  Mutex.protect mutex (fun () ->
      let n = !record_count - 1 in
      if List.exists (function Kill k -> k = n | _ -> false) !armed then begin
        armed := List.filter (function Kill k -> k <> n | _ -> true) !armed;
        die (Printf.sprintf "injected kill after record %d" n)
      end)

let short_write_die n =
  Mutex.protect mutex (fun () ->
      die (Printf.sprintf "injected short write (%d bytes kept)" n))

let injected_count () = Runtime.Telemetry.value injected_counter
