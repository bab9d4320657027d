(* The flight recorder: a postmortem of the recent past.

   While armed, two bounded rings run continuously — the per-domain
   span ring inside [Trace] and a ring of recent warn+ log lines fed by
   [Log]'s sink hook.  [dump] freezes both into one Perfetto-loadable
   Chrome trace file, so a deadline miss, internal error or SIGQUIT in
   a long-running daemon yields the span tree and warnings leading up
   to it without anyone having started an explicit --trace run. *)

type log_entry = {
  le_ts : float;  (* absolute Clock.now () at emit *)
  le_slot : int;
  le_level : Log.level;
  le_section : string;
  le_text : string;
  le_ctx : string;
}

let placeholder =
  { le_ts = 0.0; le_slot = 0; le_level = Log.Warn; le_section = "";
    le_text = ""; le_ctx = "" }

let lock = Mutex.create ()
let log_ring = ref [||]
let log_pos = ref 0
let log_total = ref 0
let dump_dir = ref (Filename.get_temp_dir_name ())
let dumps = ref 0
let dump_cap = ref 64
let seq = ref 0

let set_dir d =
  Mutex.lock lock;
  dump_dir := d;
  Mutex.unlock lock

let dir () =
  Mutex.lock lock;
  let d = !dump_dir in
  Mutex.unlock lock;
  d

let set_max_dumps n =
  Mutex.lock lock;
  dump_cap := max 0 n;
  Mutex.unlock lock

let dumps_written () =
  Mutex.lock lock;
  let n = !dumps in
  Mutex.unlock lock;
  n

(* Runs under Log's emit lock — must stay cheap and must not log. *)
let sink _ts level section text ctx =
  Mutex.lock lock;
  if Array.length !log_ring > 0 then begin
    !log_ring.(!log_pos) <-
      { le_ts = Clock.now ();
        le_slot = Control.slot ();
        le_level = level;
        le_section = section;
        le_text = text;
        le_ctx = ctx };
    log_pos := (!log_pos + 1) mod Array.length !log_ring;
    incr log_total
  end;
  Mutex.unlock lock

let arm ?dir () =
  Mutex.lock lock;
  log_ring := Array.make 256 placeholder;
  log_pos := 0;
  log_total := 0;
  (match dir with Some d -> dump_dir := d | None -> ());
  Mutex.unlock lock;
  Trace.arm_flight ();
  Log.set_sink (Some sink)

let disarm () =
  Log.set_sink None;
  Trace.disarm_flight ();
  Mutex.lock lock;
  log_ring := [||];
  log_pos := 0;
  log_total := 0;
  Mutex.unlock lock

let armed () = Trace.flight_armed ()

let recent_logs () =
  Mutex.lock lock;
  let ring = !log_ring in
  let cap = Array.length ring in
  let n = min !log_total cap in
  let start = if !log_total > cap then !log_pos else 0 in
  let out = List.init n (fun i -> ring.((start + i) mod cap)) in
  Mutex.unlock lock;
  out

let sanitize s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> c
      | _ -> '-')
    s

(* A log line becomes an instant event on the emitting domain's
   timeline; its trace id rides in ev_ctx so the exporter tags it the
   same way it tags spans. *)
let event_of_log epoch le =
  { Trace.ev_name =
      Printf.sprintf "log.%s %s: %s" (Log.to_string le.le_level)
        le.le_section le.le_text;
    ev_phase = Trace.I;
    ev_ts = le.le_ts -. epoch;
    ev_slot = le.le_slot;
    ev_ctx = le.le_ctx }

let dump ~reason ?trace_id () =
  Mutex.lock lock;
  let allowed = !dumps < !dump_cap in
  if allowed then begin
    incr dumps;
    incr seq
  end;
  let n = !seq and d = !dump_dir in
  Mutex.unlock lock;
  if not allowed then None
  else begin
    let epoch = Trace.epoch () in
    let marker =
      { Trace.ev_name = "flight.dump: " ^ reason;
        ev_phase = Trace.I;
        ev_ts = Clock.now () -. epoch;
        ev_slot = Control.slot ();
        ev_ctx = (match trace_id with Some id -> id | None -> "") }
    in
    let events =
      List.stable_sort
        (fun a b -> compare a.Trace.ev_ts b.Trace.ev_ts)
        (Trace.flight_events ()
        @ List.map (event_of_log epoch) (recent_logs ())
        @ [ marker ])
    in
    (* pid + a monotonic per-process sequence keep two triggers in the
       same second (or two daemons sharing a dump dir) from colliding;
       the trace id makes the file findable from a client-side log line
       without opening every dump. *)
    let id_part =
      match trace_id with
      | Some id when id <> "" -> "-" ^ sanitize id
      | Some _ | None -> ""
    in
    let path =
      Filename.concat d
        (Printf.sprintf "flight-%d-%03d-%s%s.json" (Unix.getpid ()) n
           (sanitize reason) id_part)
    in
    match
      (if not (Sys.file_exists d) then Unix.mkdir d 0o755);
      let oc = open_out path in
      output_string oc (Trace.chrome_string_of_events events);
      output_char oc '\n';
      close_out oc
    with
    | () -> Some path
    | exception _ -> None
  end
