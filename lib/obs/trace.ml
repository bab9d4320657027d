type phase = B | E | I | X of float

type event = {
  ev_name : string;
  ev_phase : phase;
  ev_ts : float;
  ev_slot : int;
  ev_ctx : string;  (* request trace id; "" = none *)
}

type buffer = {
  buf_slot : int;
  mutable buf_events : event array;
  mutable buf_len : int;
}

(* Fixed-capacity overwrite-oldest ring: the flight recorder's
   always-affordable record of the recent past. *)
type ring = {
  ring_slot : int;
  ring_events : event array;
  mutable ring_pos : int;    (* next write position *)
  mutable ring_total : int;  (* lifetime writes; >= capacity once wrapped *)
}

let placeholder = { ev_name = ""; ev_phase = I; ev_ts = 0.0; ev_slot = 0; ev_ctx = "" }

let tracing = Atomic.make false
let fine = Atomic.make true
let t0 = Atomic.make 0.0

(* Flight recording is independent of [tracing]: a serving daemon keeps
   the ring armed for its whole life, while full tracing is an explicit
   --trace run.  0 = disarmed. *)
let flight_capacity = Atomic.make 0

(* The current request-scoped trace id, stamped into every event and
   log line recorded while set.  A process-wide slot is correct for the
   serving path (requests evaluate one at a time); the pool workers a
   request fans out to inherit it for free. *)
let context = Atomic.make ""

let get_context () = match Atomic.get context with "" -> None | id -> Some id

let with_context id f =
  let previous = Atomic.get context in
  Atomic.set context id;
  Fun.protect ~finally:(fun () -> Atomic.set context previous) f

let reg_lock = Mutex.create ()
let buffers : buffer list ref = ref []
let rings : ring list ref = ref []

(* One buffer per domain, created and registered on the domain's first
   event.  Buffers of finished domains stay registered (their events are
   still wanted at export time); a fresh [start] rewinds them all. *)
let buffer_key =
  Domain.DLS.new_key (fun () ->
      let b =
        { buf_slot = Control.slot ();
          buf_events = Array.make 1024 placeholder;
          buf_len = 0 }
      in
      Mutex.lock reg_lock;
      buffers := b :: !buffers;
      Mutex.unlock reg_lock;
      b)

let ring_key =
  Domain.DLS.new_key (fun () ->
      let cap = max 16 (Atomic.get flight_capacity) in
      let r =
        { ring_slot = Control.slot ();
          ring_events = Array.make cap placeholder;
          ring_pos = 0;
          ring_total = 0 }
      in
      Mutex.lock reg_lock;
      rings := r :: !rings;
      Mutex.unlock reg_lock;
      r)

let push name phase =
  let ev =
    { ev_name = name;
      ev_phase = phase;
      ev_ts = Clock.now () -. Atomic.get t0;
      ev_slot = Control.slot ();
      ev_ctx = Atomic.get context }
  in
  if Atomic.get tracing then begin
    let b = Domain.DLS.get buffer_key in
    let cap = Array.length b.buf_events in
    if b.buf_len = cap then begin
      let bigger = Array.make (2 * cap) placeholder in
      Array.blit b.buf_events 0 bigger 0 cap;
      b.buf_events <- bigger
    end;
    b.buf_events.(b.buf_len) <- ev;
    b.buf_len <- b.buf_len + 1
  end;
  if Atomic.get flight_capacity > 0 then begin
    let r = Domain.DLS.get ring_key in
    r.ring_events.(r.ring_pos) <- ev;
    r.ring_pos <- (r.ring_pos + 1) mod Array.length r.ring_events;
    r.ring_total <- r.ring_total + 1
  end

let active () = Atomic.get tracing || Atomic.get flight_capacity > 0
let fine_active () = Atomic.get tracing && Atomic.get fine

(* One ring slot per span when only the flight ring is listening: a
   complete (X) event recorded at close carries the duration, halving
   the per-span cost on the serving hot path and doubling the history a
   fixed ring retains.  Full tracing keeps B/E pairs, whose live
   nesting structure the exporter and tests rely on. *)
let push_complete name t_start =
  let ev =
    { ev_name = name;
      ev_phase = X (Clock.now () -. t_start);
      ev_ts = t_start -. Atomic.get t0;
      ev_slot = Control.slot ();
      ev_ctx = Atomic.get context }
  in
  if Atomic.get flight_capacity > 0 then begin
    let r = Domain.DLS.get ring_key in
    r.ring_events.(r.ring_pos) <- ev;
    r.ring_pos <- (r.ring_pos + 1) mod Array.length r.ring_events;
    r.ring_total <- r.ring_total + 1
  end

let with_span name f =
  if Atomic.get tracing then begin
    push name B;
    match f () with
    | v ->
      push name E;
      v
    | exception e ->
      push name E;
      raise e
  end
  else if Atomic.get flight_capacity > 0 then begin
    let t_start = Clock.now () in
    match f () with
    | v ->
      push_complete name t_start;
      v
    | exception e ->
      push_complete name t_start;
      raise e
  end
  else f ()

let anchor_t0 () =
  if Atomic.get t0 = 0.0 then Atomic.set t0 (Clock.now ())

let epoch () = Atomic.get t0

let start ?(detail = `Fine) () =
  Mutex.lock reg_lock;
  List.iter (fun b -> b.buf_len <- 0) !buffers;
  Mutex.unlock reg_lock;
  Atomic.set fine (match detail with `Fine -> true | `Coarse -> false);
  Atomic.set t0 (Clock.now ());
  Atomic.set tracing true

let stop () = Atomic.set tracing false

let arm_flight () =
  anchor_t0 ();
  Atomic.set flight_capacity 4096

let disarm_flight () = Atomic.set flight_capacity 0

let sorted_events all =
  (* Stable: per-buffer (= per-domain) event order is preserved for
     equal timestamps, keeping B/E nesting valid per timeline. *)
  List.stable_sort (fun a b -> compare a.ev_ts b.ev_ts) all

let events () =
  Mutex.lock reg_lock;
  let bufs = !buffers in
  Mutex.unlock reg_lock;
  sorted_events
    (List.concat_map
       (fun b -> Array.to_list (Array.sub b.buf_events 0 b.buf_len))
       bufs)

let flight_events () =
  Mutex.lock reg_lock;
  let rs = !rings in
  Mutex.unlock reg_lock;
  sorted_events
    (List.concat_map
       (fun r ->
         let cap = Array.length r.ring_events in
         let n = min r.ring_total cap in
         (* Oldest-first: from ring_pos when wrapped, from 0 otherwise. *)
         let start = if r.ring_total > cap then r.ring_pos else 0 in
         List.init n (fun i -> r.ring_events.((start + i) mod cap)))
       rs)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let chrome_string_of_events evs =
  let slots =
    List.sort_uniq compare (List.map (fun e -> e.ev_slot) evs)
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  Buffer.add_string buf
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"sram-opt\"}}";
  List.iter
    (fun slot ->
      Buffer.add_string buf
        (Printf.sprintf
           ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
           slot
           (escape (Control.slot_name slot))))
    slots;
  let args_of e =
    if e.ev_ctx = "" then ""
    else Printf.sprintf ",\"args\":{\"trace_id\":\"%s\"}" (escape e.ev_ctx)
  in
  List.iter
    (fun e ->
      let ts = 1e6 *. e.ev_ts in
      match e.ev_phase with
      | B | E ->
        Buffer.add_string buf
          (Printf.sprintf
             ",{\"name\":\"%s\",\"ph\":\"%s\",\"ts\":%.3f,\"pid\":0,\"tid\":%d%s}"
             (escape e.ev_name)
             (match e.ev_phase with B -> "B" | _ -> "E")
             ts e.ev_slot (args_of e))
      | I ->
        Buffer.add_string buf
          (Printf.sprintf
             ",{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%.3f,\"pid\":0,\"tid\":%d%s}"
             (escape e.ev_name) ts e.ev_slot (args_of e))
      | X dur ->
        Buffer.add_string buf
          (Printf.sprintf
             ",{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,\"tid\":%d%s}"
             (escape e.ev_name) ts (1e6 *. dur) e.ev_slot (args_of e)))
    evs;
  Buffer.add_string buf "],\"displayTimeUnit\":\"ms\"}";
  Buffer.contents buf

let write oc =
  let evs = events () in
  output_string oc (chrome_string_of_events evs);
  output_char oc '\n';
  List.length evs
