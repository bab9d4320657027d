(* Tests of the lib/runtime subsystem: domain-pool determinism (parallel
   results bit-identical to sequential, including candidate order), the
   bounded LRU memo's eviction and accounting, telemetry, and a QCheck
   property that [Pool.parmap] matches [List.map] for arbitrary chunk
   sizes and job counts. *)

open Testutil

(* [f] on the process-wide pool at [jobs] workers. *)
let on_pool jobs f = with_jobs jobs (fun () -> f (Runtime.Pool.default ()))

(* ----- Pool ----- *)

let pool_tests =
  [ case "parmap matches Array.map" (fun () ->
        let arr = Array.init 103 (fun i -> i) in
        let f x = (x * x) + 1 in
        let expected = Array.map f arr in
        List.iter
          (fun jobs ->
            Alcotest.(check (array int))
              (Printf.sprintf "jobs=%d" jobs)
              expected
              (on_pool jobs (fun p -> Runtime.Pool.parmap p f arr)))
          [ 1; 2; 3; 4 ]);
    case "parmap handles empty and singleton inputs" (fun () ->
        on_pool 3 @@ fun p ->
        Alcotest.(check (array int)) "empty" [||]
          (Runtime.Pool.parmap p (fun x -> x) [||]);
        Alcotest.(check (array int)) "singleton" [| 42 |]
          (Runtime.Pool.parmap p (fun x -> x + 41) [| 1 |]));
    case "exceptions propagate to the caller" (fun () ->
        on_pool 3 @@ fun p ->
        Alcotest.check_raises "raises" (Failure "boom") (fun () ->
            ignore
              (Runtime.Pool.parmap ~chunk:1 p
                 (fun i -> if i = 5 then failwith "boom" else i)
                 (Array.init 16 (fun i -> i)))));
    case "shutdown degrades to inline execution" (fun () ->
        (* Setting the job count back joins the 3-job pool's workers;
           a handle to it runs everything inline from then on. *)
        let p = on_pool 3 Fun.id in
        Alcotest.(check (array int)) "still works" [| 2; 3; 4 |]
          (Runtime.Pool.parmap p succ [| 1; 2; 3 |]);
        let caller = (Domain.self () :> int) in
        Alcotest.(check (array int)) "on the caller's domain" (Array.make 8 caller)
          (Runtime.Pool.parmap ~chunk:1 p (fun _ -> (Domain.self () :> int)) (Array.make 8 0))) ]

(* ----- Memo ----- *)

(* A memo's registry entry: its statistics as [print_stats] reads them. *)
let stats_of name =
  List.find (fun (s : Runtime.Memo.stats) -> s.Runtime.Memo.name = name)
    (Runtime.Memo.registered_stats ())

let insert m k v = ignore (Runtime.Memo.find_or_compute m k (fun () -> v))

(* [Some v] on a hit, [None] on a miss.  A miss inserts a placeholder, so
   probe the keys expected to hit first. *)
let probe m k =
  let missed = ref false in
  let v =
    Runtime.Memo.find_or_compute m k (fun () ->
        missed := true;
        min_int)
  in
  if !missed then None else Some v

let memo_tests =
  [ case "LRU eviction keeps the cache within capacity" (fun () ->
        let m = Runtime.Memo.create ~name:"test.lru" ~capacity:3 () in
        List.iter (fun k -> insert m k (10 * k)) [ 1; 2; 3; 4; 5 ];
        let s = stats_of "test.lru" in
        Alcotest.(check int) "length" 3 s.Runtime.Memo.length;
        Alcotest.(check int) "evictions" 2 s.Runtime.Memo.evictions;
        (* 1 and 2 were least recently used; 3..5 survive. *)
        Alcotest.(check (option int)) "kept" (Some 30) (probe m 3);
        Alcotest.(check (option int)) "kept" (Some 50) (probe m 5);
        Alcotest.(check (option int)) "evicted" None (probe m 1);
        Alcotest.(check (option int)) "evicted" None (probe m 2));
    case "recency refresh protects hot entries" (fun () ->
        let m = Runtime.Memo.create ~name:"test.recency" ~capacity:2 () in
        insert m "a" 1;
        insert m "b" 2;
        ignore (probe m "a");
        (* "b" is now least recent *)
        insert m "c" 3;
        Alcotest.(check (option int)) "a kept" (Some 1) (probe m "a");
        Alcotest.(check (option int)) "b evicted" None (probe m "b"));
    case "hit/miss accounting" (fun () ->
        let m = Runtime.Memo.create ~name:"test.stats" ~capacity:4 () in
        let calls = ref 0 in
        let compute k () =
          incr calls;
          k * k
        in
        Alcotest.(check int) "first" 49 (Runtime.Memo.find_or_compute m 7 (compute 7));
        Alcotest.(check int) "second" 49 (Runtime.Memo.find_or_compute m 7 (compute 7));
        Alcotest.(check int) "computed once" 1 !calls;
        let s = stats_of "test.stats" in
        Alcotest.(check int) "hits" 1 s.Runtime.Memo.hits;
        Alcotest.(check int) "misses" 1 s.Runtime.Memo.misses;
        check_close "hit rate" 0.5 (Runtime.Memo.hit_rate s));
    case "evicted keys are recomputed" (fun () ->
        let m = Runtime.Memo.create ~name:"test.recompute" ~capacity:1 () in
        let calls = ref 0 in
        let get k =
          Runtime.Memo.find_or_compute m k (fun () ->
              incr calls;
              k)
        in
        ignore (get 1);
        ignore (get 2);
        (* evicts 1 *)
        ignore (get 1);
        Alcotest.(check int) "recomputed" 3 !calls);
    case "reset zeroes statistics, clear keeps them" (fun () ->
        (* [reset_all], as the benchmarks reset between cold runs, drops
           every entry and zeroes the statistics. *)
        let m = Runtime.Memo.create ~name:"test.reset" ~capacity:2 () in
        ignore (Runtime.Memo.find_or_compute m 1 (fun () -> 1));
        Alcotest.(check int) "counted" 1 (stats_of "test.reset").Runtime.Memo.misses;
        Runtime.Memo.reset_all ();
        let s = stats_of "test.reset" in
        Alcotest.(check int) "emptied" 0 s.Runtime.Memo.length;
        Alcotest.(check int) "stats zeroed" 0 (s.Runtime.Memo.hits + s.Runtime.Memo.misses));
    case "registry exposes every memo" (fun () ->
        let before = List.length (Runtime.Memo.registered_stats ()) in
        let _m = Runtime.Memo.create ~name:"test.registry" ~capacity:1 () in
        let after = Runtime.Memo.registered_stats () in
        Alcotest.(check int) "registered" (before + 1) (List.length after);
        Alcotest.(check bool) "named" true
          (List.exists
             (fun (s : Runtime.Memo.stats) -> s.Runtime.Memo.name = "test.registry")
             after)) ]

(* ----- Telemetry ----- *)

let telemetry_tests =
  [ case "counters accumulate" (fun () ->
        let c = Runtime.Telemetry.counter "test.counter" in
        let base = Runtime.Telemetry.value c in
        Runtime.Telemetry.incr c;
        Runtime.Telemetry.add c 4;
        Alcotest.(check int) "value" (base + 5) (Runtime.Telemetry.value c));
    case "spans record calls and time" (fun () ->
        (* A timed span is recorded in its histogram, when enabled. *)
        let span = Obs.Histogram.timer "test.span" in
        let calls () =
          List.fold_left
            (fun acc (s : Obs.Histogram.snapshot) ->
              if s.Obs.Histogram.name = "test.span" then s.Obs.Histogram.count
              else acc)
            0 (Obs.Histogram.snapshots ())
        in
        let calls_before = calls () in
        Obs.Control.set_enabled true;
        let v = Obs.Histogram.span span (fun () -> 17) in
        Obs.Control.set_enabled false;
        Alcotest.(check int) "passes value through" 17 v;
        ignore (Obs.Histogram.span span (fun () -> 18));
        Alcotest.(check int) "calls, recorded only when enabled"
          (calls_before + 1) (calls ());
        let s =
          List.find
            (fun (s : Obs.Histogram.snapshot) -> s.Obs.Histogram.name = "test.span")
            (Obs.Histogram.snapshots ())
        in
        Alcotest.(check bool) "per call" true (Obs.Histogram.per_call s);
        Alcotest.(check bool) "time accumulates" true (s.Obs.Histogram.sum >= 0.0)) ]

(* ----- parallel search determinism ----- *)

let candidate_equal (a : Opt.Exhaustive.candidate) (b : Opt.Exhaustive.candidate) =
  a.Opt.Exhaustive.geometry = b.Opt.Exhaustive.geometry
  && a.Opt.Exhaustive.assist = b.Opt.Exhaustive.assist
  && a.Opt.Exhaustive.score = b.Opt.Exhaustive.score

let search_determinism_tests =
  let env = Array_model.Array_eval.make_env ~cell_flavor:Finfet.Library.Hvt () in
  let check_capacity capacity_bits method_ =
    let run jobs =
      with_jobs jobs (fun () ->
          Opt.Exhaustive.search_all ~space:Opt.Space.reduced ~env ~capacity_bits
            ~method_ ())
    in
    let seq_result, seq_all = run 1 in
    let par_result, par_all = run 3 in
    let label = Printf.sprintf "%db %s" capacity_bits (Opt.Space.method_name method_) in
    Alcotest.(check int)
      (label ^ ": evaluated") seq_result.Opt.Exhaustive.evaluated
      par_result.Opt.Exhaustive.evaluated;
    Alcotest.(check bool)
      (label ^ ": best is bit-identical") true
      (candidate_equal seq_result.Opt.Exhaustive.best
         par_result.Opt.Exhaustive.best);
    Alcotest.(check int)
      (label ^ ": candidate count") (List.length seq_all) (List.length par_all);
    Alcotest.(check bool)
      (label ^ ": candidate order") true
      (List.for_all2 candidate_equal seq_all par_all)
  in
  (* Pruning trades `evaluated`/`pruned` determinism for speed (what gets
     skipped depends on publication timing), but never the winner: the
     selected design must stay bit-identical across job counts. *)
  let check_pruned_winner capacity_bits method_ =
    let run jobs =
      with_jobs jobs (fun () ->
          Opt.Exhaustive.search ~space:Opt.Space.reduced ~env ~capacity_bits
            ~method_ ())
    in
    let seq = run 1 in
    List.iter
      (fun jobs ->
        let par = run jobs in
        Alcotest.(check bool)
          (Printf.sprintf "%db %s: winner at jobs=%d" capacity_bits
             (Opt.Space.method_name method_) jobs)
          true
          (candidate_equal seq.Opt.Exhaustive.best par.Opt.Exhaustive.best);
        (* Every point is accounted for: evaluated, abandoned mid-scan
           by a suffix bound (skipped), or covered by a whole-line
           prune. *)
        Alcotest.(check int)
          (Printf.sprintf "jobs=%d: no scan dropped" jobs)
          (Opt.Space.size ~w:64 Opt.Space.reduced ~capacity_bits method_)
          (par.Opt.Exhaustive.evaluated + par.Opt.Exhaustive.skipped
           + (par.Opt.Exhaustive.pruned
              * (match method_ with
                 | Opt.Space.M1 -> 1
                 | Opt.Space.M2 ->
                   Array.length Opt.Space.reduced.Opt.Space.vssc_values))))
      [ 2; 4 ]
  in
  [ case "parallel search_all equals sequential (128B, both methods)" (fun () ->
        check_capacity (128 * 8) Opt.Space.M1;
        check_capacity (128 * 8) Opt.Space.M2);
    case "parallel search_all equals sequential (256B, both methods)" (fun () ->
        check_capacity (256 * 8) Opt.Space.M1;
        check_capacity (256 * 8) Opt.Space.M2);
    case "pruned search keeps the same winner at 1/2/4 jobs" (fun () ->
        check_pruned_winner (128 * 8) Opt.Space.M1;
        check_pruned_winner (128 * 8) Opt.Space.M2;
        check_pruned_winner (1024 * 8) Opt.Space.M2) ]

(* The widest suite name in this executable: it sets the output's name
   column, and with it where every test name here is truncated. *)
let yield_mc_determinism_tests =
  [ case "MC pins are reproducible from the config's seed" (fun () ->
        let config =
          { Opt.Yield_mc.default_config with Opt.Yield_mc.samples = 10; points = 21 }
        in
        let solve () = Opt.Yield_mc.solve ~config ~flavor:Finfet.Library.Hvt () in
        let a = solve () and b = solve () in
        let bits v = Int64.bits_of_float v in
        Alcotest.(check int64) "vddc_min" (bits a.Opt.Yield_mc.vddc_min)
          (bits b.Opt.Yield_mc.vddc_min);
        Alcotest.(check int64) "vwl_min" (bits a.Opt.Yield_mc.vwl_min)
          (bits b.Opt.Yield_mc.vwl_min);
        Alcotest.(check int64) "achieved" (bits a.Opt.Yield_mc.achieved_margin)
          (bits b.Opt.Yield_mc.achieved_margin)) ]

(* ----- QCheck: parmap equals List.map ----- *)

let to_alco = QCheck_alcotest.to_alcotest

let prop_parmap_matches_map =
  QCheck.Test.make ~name:"Pool.parmap f = List.map f for any chunk/jobs"
    ~count:60
    QCheck.(
      triple
        (list_of_size (Gen.int_range 0 60) (int_range (-1000) 1000))
        (int_range 1 8) (int_range 1 4))
    (fun (l, chunk, jobs) ->
      let f x = (3 * x) - 7 in
      let arr = Array.of_list l in
      let got = on_pool jobs (fun p -> Runtime.Pool.parmap ~chunk p f arr) in
      Array.to_list got = List.map f l)

let property_tests = [ to_alco prop_parmap_matches_map ]

let () =
  Alcotest.run "runtime"
    [ ("pool", pool_tests);
      ("memo", memo_tests);
      ("telemetry", telemetry_tests);
      ("search_determinism", search_determinism_tests);
      ("yield_mc_determinism", yield_mc_determinism_tests);
      ("parmap_property", property_tests) ]
