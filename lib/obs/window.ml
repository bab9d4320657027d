(* Windowed views over cumulative histograms and counters.

   A long-running daemon's lifetime histogram is dominated by cold
   start: after an hour of warm traffic the cumulative p99 still
   remembers the first 160 ms request.  Each window keeps a ring of
   cumulative snapshots taken at rotation points (default every second,
   300 retained = 5 minutes of history); the trailing window over the
   last k intervals is then one [Histogram.diff] between the live
   snapshot and the entry k rotations ago.  Storing cumulative
   snapshots instead of per-interval deltas makes the arithmetic exact:
   counts and bucket counts subtract as ints, and the full-history
   window (older endpoint = the zero baseline) reproduces the
   cumulative sum bit-for-bit — the invariant the QCheck property in
   test_obs pins. *)

let default_period = 1.0
let default_intervals = 300

let standard_windows = [ ("10s", 10); ("60s", 60); ("300s", 300) ]

type t = {
  w_name : string;
  hist : Histogram.t;
  ring : Histogram.snapshot array;  (* cumulative at each rotation *)
  mutable head : int;               (* next write position *)
  mutable filled : int;
  baseline : Histogram.snapshot;    (* cumulative at window creation *)
}

type tracked = {
  t_name : string;
  source : unit -> int;
  t_base : int;
  values : int array;               (* source value at each rotation *)
  mutable t_head : int;
  mutable t_filled : int;
}

let lock = Mutex.create ()
let windows : (string, t) Hashtbl.t = Hashtbl.create 8
let tracked_counters : (string, tracked) Hashtbl.t = Hashtbl.create 8
let period = Atomic.make default_period
let last_rotation = Atomic.make 0.0

let current_period () = Atomic.get period

let create hist =
  let name = (Histogram.snapshot hist).Histogram.name in
  Mutex.lock lock;
  let w =
    match Hashtbl.find_opt windows name with
    | Some w -> w
    | None ->
      let baseline = Histogram.snapshot hist in
      let w =
        { w_name = name;
          hist;
          ring = Array.make default_intervals baseline;
          head = 0;
          filled = 0;
          baseline }
      in
      Hashtbl.add windows name w;
      w
  in
  Mutex.unlock lock;
  w

let track name source =
  Mutex.lock lock;
  (if not (Hashtbl.mem tracked_counters name) then
     let t =
       { t_name = name;
         source;
         t_base = source ();
         values = Array.make default_intervals 0;
         t_head = 0;
         t_filled = 0 }
     in
     Hashtbl.add tracked_counters name t);
  Mutex.unlock lock

(* Callers hold [lock]. *)
let rotate_locked w =
  w.ring.(w.head) <- Histogram.snapshot w.hist;
  w.head <- (w.head + 1) mod default_intervals;
  if w.filled < default_intervals then w.filled <- w.filled + 1

let rotate_tracked_locked t =
  t.values.(t.t_head) <- t.source ();
  t.t_head <- (t.t_head + 1) mod Array.length t.values;
  if t.t_filled < Array.length t.values then t.t_filled <- t.t_filled + 1

let rotate w =
  Mutex.lock lock;
  rotate_locked w;
  Mutex.unlock lock

let rotate_all () =
  Mutex.lock lock;
  Hashtbl.iter (fun _ w -> rotate_locked w) windows;
  Hashtbl.iter (fun _ t -> rotate_tracked_locked t) tracked_counters;
  Mutex.unlock lock

(* The serve loop calls this every pump iteration; it costs one clock
   compare until a period boundary passes.  A loop stalled across
   several periods rotates once per elapsed period (capped at the ring
   size) so window spans stay ~[k * period] even after a long request
   monopolized the loop — the stalled intervals just hold duplicate
   cumulative snapshots (empty deltas). *)
let maybe_rotate ?now () =
  let now = match now with Some t -> t | None -> Clock.now () in
  let p = Atomic.get period in
  let last = Atomic.get last_rotation in
  if last = 0.0 then Atomic.set last_rotation now
  else if now -. last >= p then begin
    let missed = int_of_float ((now -. last) /. p) in
    let n = min missed default_intervals in
    for _ = 1 to n do
      rotate_all ()
    done;
    Atomic.set last_rotation (last +. (float_of_int missed *. p))
  end

(* The cumulative snapshot [k] rotations ago (0 = the most recent
   rotation point); the creation-time baseline once [k] reaches past
   the retained history. *)
let entry_ago w k =
  if w.filled = 0 || k >= w.filled then w.baseline
  else begin
    let idx = (w.head - 1 - k + (2 * default_intervals)) mod default_intervals in
    w.ring.(idx)
  end

let merged w ~intervals =
  Mutex.lock lock;
  let older = entry_ago w (max 0 (intervals - 1)) in
  Mutex.unlock lock;
  Histogram.diff (Histogram.snapshot w.hist) older

let cumulative w = Histogram.snapshot w.hist

let retained w =
  Mutex.lock lock;
  let n = w.filled in
  Mutex.unlock lock;
  n

let name w = w.w_name

let find name =
  Mutex.lock lock;
  let w = Hashtbl.find_opt windows name in
  Mutex.unlock lock;
  w

let report () =
  Mutex.lock lock;
  let ws = Hashtbl.fold (fun _ w acc -> w :: acc) windows [] in
  Mutex.unlock lock;
  List.sort
    (fun (a, _, _) (b, _, _) -> compare a b)
    (List.map
       (fun w ->
         ( w.w_name,
           cumulative w,
           List.map
             (fun (label, k) -> (label, merged w ~intervals:k))
             standard_windows ))
       ws)

let counter_ago_locked t k =
  if t.t_filled = 0 || k >= t.t_filled then t.t_base
  else begin
    let n = Array.length t.values in
    let idx = (t.t_head - 1 - k + (2 * n)) mod n in
    t.values.(idx)
  end

let counter_report () =
  Mutex.lock lock;
  let ts = Hashtbl.fold (fun _ t acc -> t :: acc) tracked_counters [] in
  let rows =
    List.map
      (fun t ->
        let current = t.source () in
        ( t.t_name,
          current,
          List.map
            (fun (label, k) ->
              (label, max 0 (current - counter_ago_locked t (k - 1))))
            standard_windows ))
      ts
  in
  Mutex.unlock lock;
  List.sort (fun (a, _, _) (b, _, _) -> compare a b) rows

let reset_all () =
  Mutex.lock lock;
  Hashtbl.reset windows;
  Hashtbl.reset tracked_counters;
  Mutex.unlock lock;
  Atomic.set last_rotation 0.0
