(* Sweep checkpoint journal.

   One journal file holds records {"task":sig,"chunk":i,"data":..},
   appended by the searches as each geometry chunk completes.  The task
   signature encodes everything the chunk result depends on (objective,
   kernel, flavor, accounting, full grids...), so resuming against a
   changed configuration silently matches nothing and recomputes — a
   stale journal can slow a run down but never corrupt it.

   Like Cache, an ambient default is settable by the CLI so the
   searches pick the journal up without parameter threading. *)

type t = {
  log : Record_log.t;
  (* (task, chunk) -> data, from replay plus this run's appends *)
  done_chunks : (string * int, Json.t) Hashtbl.t;
  replayed : int;
  mutable degraded : bool;
  every : int;
  lock : Mutex.t;
}

let schema = "sweep-journal"
let c_chunks = Runtime.Telemetry.counter "persist.checkpoint.chunks"
let c_replayed = Runtime.Telemetry.counter "persist.checkpoint.replayed"

let decode_record j =
  match
    (Json.string_field j "task", Json.int_field j "chunk", Json.member "data" j)
  with
  | Some task, Some chunk, Some data -> Some (task, chunk, data)
  | _ -> None

(* A journal that cannot be created or opened is an [Error], never an
   exception: the CLI reports it and exits before any search runs. *)
let create ~path ?(resume = false) ?(checkpoint_every = 64) () =
  let every = max 1 checkpoint_every in
  let opened =
    try
      if resume then Record_log.open_append ~path ~schema ()
      else Ok (Record_log.create ~path ~schema (), [])
    with Sys_error msg -> Error (Printf.sprintf "%s: %s" path msg)
  in
  Result.map
    (fun (log, records) ->
      let done_chunks = Hashtbl.create 256 in
      List.iter
        (fun r ->
          match decode_record r with
          | Some (task, chunk, data) ->
            Hashtbl.replace done_chunks (task, chunk) data
          | None -> ())
        records;
      let replayed = Hashtbl.length done_chunks in
      Runtime.Telemetry.add c_replayed replayed;
      if replayed > 0 then
        Obs.Log.info ~section:"persist"
          "resume: %d completed chunks replayed from %s" replayed path;
      { log; done_chunks; replayed; degraded = false; every;
        lock = Mutex.create () })
    opened

let checkpoint_every t = t.every
let replayed t = t.replayed

let completed t ~task ~chunk =
  Mutex.protect t.lock (fun () ->
      Hashtbl.find_opt t.done_chunks (task, chunk))

let completed_for t ~task =
  Mutex.protect t.lock (fun () ->
      Hashtbl.fold
        (fun (tk, chunk) data acc ->
          if tk = task then (chunk, data) :: acc else acc)
        t.done_chunks [])

let record t ~task ~chunk data =
  Mutex.protect t.lock (fun () ->
      let r =
        Json.Obj
          [
            ("task", Json.String task);
            ("chunk", Json.Int chunk);
            ("data", data);
          ]
      in
      (* Faults.Injected must propagate — it models a dead process.
         Real write errors degrade: the sweep result is still correct,
         only resumability is lost.  Once a write has failed the
         journal stops touching the disk, so a full disk costs one
         failed write total rather than one per chunk. *)
      if not t.degraded then
        (try
           Record_log.append t.log r;
           Runtime.Telemetry.incr c_chunks
         with Sys_error msg ->
           t.degraded <- true;
           Obs.Log.warn ~section:"persist"
             "checkpoint write failed (%s); chunk %d of %s not journaled, \
              journaling disabled"
             msg chunk task);
      Hashtbl.replace t.done_chunks (task, chunk) data)

let close t = Record_log.close t.log

(* ----- ambient default, mirroring Pool.set_default_jobs ----- *)

let default_ref : t option ref = ref None
let set_default d = default_ref := d
let default () = !default_ref
