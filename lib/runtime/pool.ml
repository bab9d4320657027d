type t = {
  mutable jobs : int;
  lock : Mutex.t;
  work : (unit -> unit) Queue.t;
  pending : Condition.t;
  mutable closed : bool;
  mutable workers : unit Domain.t list;
}

let worker t () =
  let rec loop () =
    Mutex.lock t.lock;
    let rec next () =
      if t.closed then None
      else if Queue.is_empty t.work then begin
        Condition.wait t.pending t.lock;
        next ()
      end
      else Some (Queue.pop t.work)
    in
    let job = next () in
    Mutex.unlock t.lock;
    match job with
    | None -> ()
    | Some job ->
      job ();
      loop ()
  in
  loop ()

let create ?jobs () =
  let jobs =
    match jobs with
    | Some j -> max 1 j
    | None -> Domain.recommended_domain_count ()
  in
  let t =
    { jobs;
      lock = Mutex.create ();
      work = Queue.create ();
      pending = Condition.create ();
      closed = false;
      workers = [] }
  in
  if jobs > 1 then
    t.workers <-
      List.init (jobs - 1) (fun i ->
          Domain.spawn (fun () ->
              (* Label this domain's trace timeline (the caller
                 participates as worker 0). *)
              Obs.Control.set_worker_name (Printf.sprintf "worker-%d" (i + 1));
              worker t ()));
  t

let shutdown t =
  Mutex.lock t.lock;
  t.closed <- true;
  Condition.broadcast t.pending;
  Mutex.unlock t.lock;
  List.iter Domain.join t.workers;
  t.workers <- [];
  t.jobs <- 1

let parmap ?chunk t f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else if t.jobs <= 1 || n = 1 then Array.map f arr
  else begin
    let chunk =
      match chunk with
      | Some c -> max 1 c
      | None -> max 1 ((n + (4 * t.jobs) - 1) / (4 * t.jobs))
    in
    let chunks = (n + chunk - 1) / chunk in
    let res = Array.make n None in
    let error = Atomic.make None in
    let remaining = Atomic.make chunks in
    let done_lock = Mutex.create () in
    let done_cond = Condition.create () in
    let run_chunk c () =
      let lo = c * chunk and hi = min (n - 1) (((c + 1) * chunk) - 1) in
      Obs.Trace.with_span "pool.chunk" (fun () ->
          try
            for i = lo to hi do
              res.(i) <- Some (f arr.(i))
            done
          with e -> ignore (Atomic.compare_and_set error None (Some e)));
      if Atomic.fetch_and_add remaining (-1) = 1 then begin
        Mutex.lock done_lock;
        Condition.broadcast done_cond;
        Mutex.unlock done_lock
      end
    in
    Mutex.lock t.lock;
    for c = 1 to chunks - 1 do
      Queue.push (run_chunk c) t.work
    done;
    Condition.broadcast t.pending;
    Mutex.unlock t.lock;
    run_chunk 0 ();
    (* Help drain the queue, then wait for straggler chunks running on
       worker domains. *)
    let rec help () =
      if Atomic.get remaining > 0 then begin
        Mutex.lock t.lock;
        let job =
          if Queue.is_empty t.work then None else Some (Queue.pop t.work)
        in
        Mutex.unlock t.lock;
        match job with
        | Some job ->
          job ();
          help ()
        | None ->
          Mutex.lock done_lock;
          while Atomic.get remaining > 0 do
            Condition.wait done_cond done_lock
          done;
          Mutex.unlock done_lock
      end
    in
    help ();
    (match Atomic.get error with Some e -> raise e | None -> ());
    Array.map (function Some v -> v | None -> assert false) res
  end

(* ----- process-wide default pool ----- *)

let default_lock = Mutex.create ()
let default_pool : t option ref = ref None
let requested_jobs = ref 1

let set_default_jobs n =
  Mutex.lock default_lock;
  let previous = !default_pool in
  requested_jobs := max 1 n;
  default_pool := None;
  Mutex.unlock default_lock;
  match previous with None -> () | Some p -> shutdown p

let default () =
  Mutex.protect default_lock (fun () ->
      match !default_pool with
      | Some p -> p
      | None ->
        let p = create ~jobs:!requested_jobs () in
        default_pool := Some p;
        p)

let default_jobs () =
  Mutex.lock default_lock;
  let n = match !default_pool with Some p -> p.jobs | None -> !requested_jobs in
  Mutex.unlock default_lock;
  n

(* ----- per-domain storage -----

   A thin veneer over [Domain.DLS]: one value per domain, created
   lazily the first time that domain asks.  Scan buffers and other
   reusable scratch live here so a parallel sweep allocates one buffer
   per domain for the process lifetime, not one per chunk — and jobs=1
   runs always hit the same warm buffer. *)

type 'a local = 'a Domain.DLS.key

let local init = Domain.DLS.new_key init

let get_local key = Domain.DLS.get key
