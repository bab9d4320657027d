(* On-disk cache tier backing Runtime.Memo.

   Each named cache is one record log <dir>/<name>.rlog of
   {"k":key,"v":value} records.  Opening it reads the file once and
   keeps the bytes: the record log checks every frame in place, and the
   index maps each key to the byte span of its latest value (later
   records win, so re-stores are harmless).  A value becomes a tree on
   its key's first [find], so an open costs a scan of the file, not a
   tree per record ever stored.  Handles are registered at module-init
   time and stay inactive (pure pass-through) until the CLI calls
   [set_dir]; this mirrors the ambient Pool.set_default_jobs idiom so
   call sites never thread a cache directory around.

   Write failures degrade the cache to memory-only with a warning —
   a full disk must never kill a sweep that would succeed without the
   cache. *)

(* A value as the index holds it: its bytes in the open log, or its
   tree once decoded or added. *)
type entry = Span of int * int | Value of Json.t

type t = {
  name : string;
  table : (string, entry) Hashtbl.t;
  mutable bytes : string;  (* the log as read at open; spans index it *)
  mutable log : Record_log.t option;
  mutable degraded : bool;
  lock : Mutex.t;
}

let c_hit = Runtime.Telemetry.counter "persist.cache.hit"
let c_miss = Runtime.Telemetry.counter "persist.cache.miss"
let c_store = Runtime.Telemetry.counter "persist.cache.store"
let replay_timer = Obs.Histogram.timer "persist.replay"

let registry : t list ref = ref []
let registry_lock = Mutex.create ()

let create ~name () =
  let t =
    {
      name;
      table = Hashtbl.create 64;
      bytes = "";
      log = None;
      degraded = false;
      lock = Mutex.create ();
    }
  in
  Mutex.protect registry_lock (fun () -> registry := t :: !registry);
  t

let schema_of t = "cache/" ^ t.name

(* The first member named [name], as [Json.member] reads it. *)
let rec first name = function
  | [] -> None
  | ((m, _, _) as member) :: rest ->
    if String.equal m name then Some member else first name rest

(* Indexes one record's key to its value's span, if the record has a
   string "k" and a "v". *)
let index_record t (pos, len) =
  match Json.member_spans t.bytes pos len with
  | None -> ()
  | Some members -> (
    match (first "k" members, first "v" members) with
    | Some (_, kpos, klen), Some (_, vpos, vlen) -> (
      match Json.of_substring t.bytes kpos klen with
      | Ok (Json.String k) -> Hashtbl.replace t.table k (Span (vpos, vlen))
      | _ -> ())
    | _ -> ())

let record_of_entry k v = Json.Obj [ ("k", Json.String k); ("v", v) ]

(* The tree of an entry; [None] only if its span does not decode, which
   the open-time check rules out. *)
let value_of t = function
  | Value v -> Some v
  | Span (pos, len) -> Result.to_option (Json.of_substring t.bytes pos len)

(* A key's value, decoded on its first lookup and kept as a tree. *)
let lookup t key =
  match Hashtbl.find_opt t.table key with
  | None -> None
  | Some (Value v) -> Some v
  | Some (Span _ as e) ->
    let v = value_of t e in
    (match v with
     | Some v -> Hashtbl.replace t.table key (Value v)
     | None -> Hashtbl.remove t.table key);
    v

let close_log t =
  (match t.log with
   | Some log ->
     (try Record_log.close log with _ -> ());
     t.log <- None
   | None -> ());
  Hashtbl.reset t.table;
  t.bytes <- ""

let open_in_dir t dir =
  Mutex.protect t.lock (fun () ->
      close_log t;
      t.degraded <- false;
      let path = Filename.concat dir (t.name ^ ".rlog") in
      Obs.Histogram.span replay_timer @@ fun () ->
      match Record_log.open_spans ~path ~schema:(schema_of t) () with
      | Error msg ->
        Obs.Log.warn ~section:"persist" "cache %s: %s; starting fresh" t.name
          msg;
        (try Sys.remove path with _ -> ());
        (match Record_log.open_spans ~path ~schema:(schema_of t) () with
        | Ok (log, _, _) -> t.log <- Some log
        | Error msg ->
          t.degraded <- true;
          Obs.Log.warn ~section:"persist" "cache %s unusable: %s" t.name msg)
      | Ok (log, bytes, records) ->
        t.bytes <- bytes;
        List.iter (index_record t) records;
        let distinct = Hashtbl.length t.table in
        let replayed = List.length records in
        (* Compact when the log carries heavy duplication: rewrite the
           distinct entries atomically and reopen. *)
        if replayed > 64 && replayed > 2 * distinct then begin
          Record_log.close log;
          let reopen () =
            match Record_log.open_spans ~path ~schema:(schema_of t) () with
            | Ok (log, _, _) -> t.log <- Some log
            | Error msg ->
              t.degraded <- true;
              Obs.Log.warn ~section:"persist"
                "cache %s: reopen after compaction failed: %s" t.name msg
          in
          (* The index keeps its spans into the bytes read above; only
             the snapshot needs the distinct values as trees. *)
          let entries =
            Hashtbl.fold
              (fun k e acc ->
                match value_of t e with
                | Some v -> record_of_entry k v :: acc
                | None -> acc)
              t.table []
          in
          match Record_log.write_snapshot ~path ~schema:(schema_of t) entries with
          | () -> reopen ()
          | exception Sys_error msg ->
            (* Compaction is an optimization; the duplicated log on disk
               is still valid, so fall back to it. *)
            Obs.Log.warn ~section:"persist"
              "cache %s: compaction failed (%s); keeping uncompacted log"
              t.name msg;
            reopen ()
        end
        else t.log <- Some log)

let set_dir dir =
  let all = Mutex.protect registry_lock (fun () -> !registry) in
  match dir with
  | None -> List.iter (fun t -> Mutex.protect t.lock (fun () -> close_log t)) all
  | Some d ->
    if not (Sys.file_exists d) then
      (try Unix.mkdir d 0o755
       with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    List.iter (fun t -> open_in_dir t d) all

let find t key =
  Mutex.protect t.lock (fun () ->
      if t.log = None then None
      else
        match lookup t key with
        | Some v ->
          Runtime.Telemetry.incr c_hit;
          Some v
        | None ->
          Runtime.Telemetry.incr c_miss;
          None)

let add t key value =
  Mutex.protect t.lock (fun () ->
      match t.log with
      | None -> ()
      | Some log ->
        Hashtbl.replace t.table key (Value value);
        Runtime.Telemetry.incr c_store;
        (* Once degraded, never touch the disk again — a full disk
           would otherwise cost a failing write per store.  [t.log]
           stays [Some] as the activity gate for the memory tier; the
           fd underneath is closed. *)
        if not t.degraded then (
          try Record_log.append log (record_of_entry key value)
          with Sys_error msg ->
            t.degraded <- true;
            (try Record_log.close log with _ -> ());
            Obs.Log.warn ~section:"persist"
              "cache %s: write failed (%s); continuing memory-only" t.name msg))
