(* Every histogram shares one bucket layout: [n_buckets] buckets from
   [lo] seconds (or units) up, each [ratio] times the last. *)
let n_buckets = 64
let lo = 1e-9
let ratio = sqrt 2.0

type measure = Seconds | Ratio

type t = {
  h_name : string;
  unit : measure;
  help : string;
  sample : int;
  counts : int array array;  (* slot -> bucket -> count *)
  sums : float array;
  mins : float array;
  maxs : float array;
  totals : int array;
  countdown : int array;     (* per-slot sampling countdown *)
  gc_hits : int array;       (* samples that straddled a major GC slice *)
}

let registry_lock = Mutex.create ()
let registry : (string, t) Hashtbl.t = Hashtbl.create 16

let make ~unit ~help ~sample name =
  let slots = Control.max_slots in
  { h_name = name;
    unit;
    help;
    sample = max 1 sample;
    counts = Array.init slots (fun _ -> Array.make n_buckets 0);
    sums = Array.make slots 0.0;
    mins = Array.make slots infinity;
    maxs = Array.make slots neg_infinity;
    totals = Array.make slots 0;
    countdown = Array.make slots 1;
    gc_hits = Array.make slots 0 }

let create ?(unit = Seconds) ?(help = "") ?(sample = 1) name =
  Mutex.lock registry_lock;
  let h =
    match Hashtbl.find_opt registry name with
    | Some h -> h
    | None ->
      let h = make ~unit ~help ~sample name in
      Hashtbl.add registry name h;
      h
  in
  Mutex.unlock registry_lock;
  h

(* Bucket i holds v with lo * r^i <= v < lo * r^(i+1) (i >= 1); bucket 0
   additionally absorbs everything <= lo.  log_r(x) = 2 * log2(x) for
   r = sqrt 2. *)
let bucket_of (_ : t) v =
  if not (v > lo) then 0
  else begin
    let i = int_of_float (2.0 *. Float.log2 (v /. lo)) in
    if i < 0 then 0 else if i >= n_buckets then n_buckets - 1 else i
  end

let observe t v =
  let s = Control.slot () in
  let b = bucket_of t v in
  t.counts.(s).(b) <- t.counts.(s).(b) + 1;
  t.totals.(s) <- t.totals.(s) + 1;
  t.sums.(s) <- t.sums.(s) +. v;
  if v < t.mins.(s) then t.mins.(s) <- v;
  if v > t.maxs.(s) then t.maxs.(s) <- v

(* GC-coincidence accounting: the p99/max outliers of a nanosecond-scale
   histogram are only diagnosable if we know whether the slow samples
   ran concurrently with collector work.  Callers bracket the timed
   region with {!major_collections} and report the delta here. *)
let major_collections () = (Gc.quick_stat ()).Gc.major_collections

let observe_gc t v gc_delta =
  observe t v;
  if gc_delta > 0 then begin
    let s = Control.slot () in
    t.gc_hits.(s) <- t.gc_hits.(s) + 1
  end

let tick t =
  Control.is_enabled ()
  && begin
    let s = Control.slot () in
    let c = t.countdown.(s) in
    if c <= 1 then begin
      t.countdown.(s) <- t.sample;
      true
    end
    else begin
      t.countdown.(s) <- c - 1;
      false
    end
  end

let time t f =
  if tick t then begin
    let t0 = Clock.now () in
    match f () with
    | v ->
      observe t (Clock.now () -. t0);
      v
    | exception e ->
      observe t (Clock.now () -. t0);
      raise e
  end
  else f ()

type timer = { timer_name : string; timer_hist : t option Atomic.t }

let timer name = { timer_name = name; timer_hist = Atomic.make None }

(* The histogram is created on the site's first recorded call, not at
   load time: its shards are ~64 KB, too much to allocate for every site
   a run never reaches.  Two domains racing on the first call both get
   the one registered histogram from [create]. *)
let span tm f =
  Trace.with_span tm.timer_name (fun () ->
      if Control.is_enabled () then begin
        let h =
          match Atomic.get tm.timer_hist with
          | Some h -> h
          | None ->
            let h = create tm.timer_name in
            Atomic.set tm.timer_hist (Some h);
            h
        in
        time h f
      end
      else f ())

type snapshot = {
  name : string;
  unit : measure;
  help : string;
  sample : int;
  lo : float;
  count : int;
  sum : float;
  min_s : float;
  max_s : float;
  gc_coincident : int;
  buckets : int array;
}

let snapshot t =
  let buckets = Array.make n_buckets 0 in
  let count = ref 0 in
  let sum = ref 0.0 in
  let min_s = ref infinity in
  let max_s = ref neg_infinity in
  let gc_hits = ref 0 in
  for s = 0 to Control.max_slots - 1 do
    let row = t.counts.(s) in
    for b = 0 to n_buckets - 1 do
      buckets.(b) <- buckets.(b) + row.(b)
    done;
    count := !count + t.totals.(s);
    sum := !sum +. t.sums.(s);
    gc_hits := !gc_hits + t.gc_hits.(s);
    if t.mins.(s) < !min_s then min_s := t.mins.(s);
    if t.maxs.(s) > !max_s then max_s := t.maxs.(s)
  done;
  { name = t.h_name;
    unit = t.unit;
    help = t.help;
    sample = t.sample;
    lo;
    count = !count;
    sum = !sum;
    min_s = !min_s;
    max_s = !max_s;
    gc_coincident = !gc_hits;
    buckets }

let bucket_bounds (s : snapshot) i =
  let lower = if i = 0 then 0.0 else s.lo *. (ratio ** float_of_int i) in
  let upper = s.lo *. (ratio ** float_of_int (i + 1)) in
  (lower, upper)

(* [diff newer older]: the observations recorded between two snapshots
   of the SAME histogram.  Counts, bucket counts and gc hits subtract
   exactly (ints); the sum subtracts in one operation, so a window whose
   older endpoint is the zero baseline reproduces the cumulative sum
   bit-for-bit.  The true min/max of the in-between observations are not
   recoverable from cumulative extrema, so they are re-estimated from
   the surviving buckets' bounds — [percentile] only uses them as
   clamps, and a bucket bound is always a valid clamp for the bucket's
   contents. *)
let diff (newer : snapshot) (older : snapshot) =
  if newer.lo <> older.lo
     || Array.length newer.buckets <> Array.length older.buckets
  then invalid_arg "Histogram.diff: bucket layouts differ";
  let buckets =
    Array.mapi (fun i c -> max 0 (c - older.buckets.(i))) newer.buckets
  in
  let count = max 0 (newer.count - older.count) in
  let lowest = ref (-1) and highest = ref (-1) in
  Array.iteri
    (fun i c ->
      if c > 0 then begin
        if !lowest < 0 then lowest := i;
        highest := i
      end)
    buckets;
  let min_s, max_s =
    if count = 0 || !lowest < 0 then (infinity, neg_infinity)
    else begin
      let lower0, _ = bucket_bounds newer !lowest in
      let _, upper1 = bucket_bounds newer !highest in
      (* The cumulative extrema bound every sample ever seen, including
         the window's, so they tighten the bucket-edge estimate where
         they are sharper. *)
      (Float.max lower0 newer.min_s, Float.min upper1 newer.max_s)
    end
  in
  { name = newer.name;
    unit = newer.unit;
    help = newer.help;
    sample = newer.sample;
    lo = newer.lo;
    count;
    sum = newer.sum -. older.sum;
    min_s;
    max_s;
    gc_coincident = max 0 (newer.gc_coincident - older.gc_coincident);
    buckets }

let percentile (s : snapshot) p =
  if s.count = 0 then 0.0
  else begin
    let p = Float.max 0.0 (Float.min 1.0 p) in
    let target = p *. float_of_int s.count in
    let n = Array.length s.buckets in
    let result = ref s.max_s in
    let cum = ref 0.0 in
    (try
       for i = 0 to n - 1 do
         let c = float_of_int s.buckets.(i) in
         if c > 0.0 && !cum +. c >= target then begin
           let frac = (target -. !cum) /. c in
           let lower, upper = bucket_bounds s i in
           result := lower +. (frac *. (upper -. lower));
           raise Exit
         end;
         cum := !cum +. c
       done
     with Exit -> ());
    Float.max s.min_s (Float.min s.max_s !result)
  end

let mean (s : snapshot) =
  if s.count = 0 then 0.0 else s.sum /. float_of_int s.count

let snapshots () =
  Mutex.lock registry_lock;
  let hs = Hashtbl.fold (fun _ h acc -> h :: acc) registry [] in
  Mutex.unlock registry_lock;
  List.sort
    (fun (a : snapshot) b -> compare a.name b.name)
    (List.map snapshot hs)

let reset t =
  for s = 0 to Control.max_slots - 1 do
    Array.fill t.counts.(s) 0 n_buckets 0;
    t.sums.(s) <- 0.0;
    t.mins.(s) <- infinity;
    t.maxs.(s) <- neg_infinity;
    t.totals.(s) <- 0;
    t.countdown.(s) <- 1;
    t.gc_hits.(s) <- 0
  done

let reset_all () =
  Mutex.lock registry_lock;
  let hs = Hashtbl.fold (fun _ h acc -> h :: acc) registry [] in
  Mutex.unlock registry_lock;
  List.iter reset hs

let pp_s v =
  if v >= 1.0 then Printf.sprintf "%.2f s" v
  else if v >= 1e-3 then Printf.sprintf "%.2f ms" (v *. 1e3)
  else if v >= 1e-6 then Printf.sprintf "%.2f us" (v *. 1e6)
  else Printf.sprintf "%.0f ns" (v *. 1e9)

let per_call (s : snapshot) = s.unit = Seconds && s.sample = 1

let print_report ?(channel = stdout) ~counters () =
  let snaps = List.filter (fun s -> s.count > 0) (snapshots ()) in
  if snaps <> [] then begin
    Printf.fprintf channel "%-28s %9s %10s %10s %10s %10s %10s %10s %7s %14s\n"
      "histogram" "samples" "total" "p50" "p90" "p99" "max" "mean" "gc-hit"
      "rate";
    List.iter
      (fun s ->
        let pp v =
          match s.unit with
          | Seconds -> pp_s v
          | Ratio -> Printf.sprintf "%.4g" v
        in
        let total = if per_call s then pp_s s.sum else "-" in
        let rate =
          match List.assoc_opt s.name counters with
          | Some n when per_call s && s.sum > 0.0 ->
            Printf.sprintf "%.0f /s" (float_of_int n /. s.sum)
          | _ -> "-"
        in
        Printf.fprintf channel
          "%-28s %9d %10s %10s %10s %10s %10s %10s %7d %14s\n" s.name s.count
          total
          (pp (percentile s 0.50))
          (pp (percentile s 0.90))
          (pp (percentile s 0.99))
          (pp s.max_s) (pp (mean s)) s.gc_coincident rate)
      snaps
  end
