(* Multi-objective search stack: QCheck properties for the NSGA-II
   machinery (Moo) and the hypervolume indicator, oracle-differential
   tests gating the heuristic engines against the exhaustive search on
   reduced Table-4 spaces, and backfill tests pinning that routing the
   pre-existing engines through Opt.Strategy changed nothing — down to
   the full-sweep winner checksum. *)

open Testutil

let to_alco = QCheck_alcotest.to_alcotest

let env_hvt = Array_model.Array_eval.make_env ~cell_flavor:Finfet.Library.Hvt ()
let all_strategies = Opt.Strategy.[ Exhaustive; Local_search; Anneal; Nsga2; Surrogate ]
let levels_hvt = Opt.Yield.solve ~flavor:Finfet.Library.Hvt ()

(* ----- Moo: sorting and crowding over raw point sets ----- *)

(* Coordinates drawn from a coarse grid so duplicates and ties are
   common — the regime where a sloppy sort or a non-canonical crowding
   formulation breaks. *)
let points_gen =
  QCheck.make
    ~print:(fun pts ->
      String.concat ";"
        (List.map
           (fun p -> Printf.sprintf "(%g,%g)" p.(0) p.(1))
           (Array.to_list pts)))
    QCheck.Gen.(
      let coord = map (fun k -> float_of_int k /. 8.0) (int_bound 16) in
      let point = map (fun (x, y) -> [| x; y |]) (pair coord coord) in
      map Array.of_list (list_size (int_range 1 24) point))

(* Minimization dominance over objective vectors, as textbooks define it. *)
let dominates a b =
  let no_worse = ref true and better = ref false in
  Array.iteri
    (fun m x ->
      if x > b.(m) then no_worse := false else if x < b.(m) then better := true)
    a;
  !no_worse && !better

let prop_sort_consistent_with_dominates =
  QCheck.Test.make ~name:"nondominated sort ranks agree with dominance"
    ~count:300 points_gen (fun pts ->
      let rank = Opt.Moo.fast_nondominated_sort pts in
      let n = Array.length pts in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if dominates pts.(i) pts.(j) && rank.(i) >= rank.(j) then
            ok := false
        done;
        (* Rank 0 must be exactly the non-dominated set. *)
        let dominated =
          Array.exists (fun q -> dominates q pts.(i)) pts
        in
        if (rank.(i) = 0) = dominated then ok := false
      done;
      !ok)

let prop_moo_dominates_matches_pareto =
  (* The raw-vector dominance behind NSGA-II's sort must agree with the
     candidate-level front: on Pareto.objectives vectors, rank 0 holds
     exactly the front's points.  Driven with windows of real evaluated
     candidates so the vectors carry genuine float noise. *)
  QCheck.Test.make ~name:"Moo.dominates agrees with Pareto.dominates"
    ~count:40
    QCheck.(pair small_nat small_nat)
    (fun (i, j) ->
      let _, all =
        Opt.Exhaustive.search_all ~space:Opt.Space.reduced ~levels:levels_hvt
          ~env:env_hvt ~capacity_bits:(1024 * 8) ~method_:Opt.Space.M2 ()
      in
      let arr = Array.of_list all in
      let lo = i mod Array.length arr in
      let window = Array.sub arr lo (min (2 + (j mod 64)) (Array.length arr - lo)) in
      let points = Array.map Opt.Pareto.objectives window in
      let rank = Opt.Moo.fast_nondominated_sort points in
      let first_rank =
        List.filteri (fun k _ -> rank.(k) = 0) (Array.to_list points)
      in
      let front = List.map Opt.Pareto.objectives (Opt.Pareto.front (Array.to_list window)) in
      List.sort_uniq compare first_rank = List.sort_uniq compare front)

let prop_crowding_permutation_invariant =
  QCheck.Test.make ~name:"crowding distance is permutation-invariant"
    ~count:300
    QCheck.(pair points_gen (int_bound 1_000_000))
    (fun (pts, seed) ->
      let n = Array.length pts in
      let members = Array.init n (fun i -> i) in
      (* Fisher-Yates with a deterministic stream. *)
      let rng = Numerics.Rng.create ~seed in
      let perm = Array.copy members in
      for i = n - 1 downto 1 do
        let j = Numerics.Rng.int_below rng (i + 1) in
        let t = perm.(i) in
        perm.(i) <- perm.(j);
        perm.(j) <- t
      done;
      let base = Opt.Moo.crowding_distance pts members in
      let shuffled = Opt.Moo.crowding_distance pts perm in
      (* Align: shuffled.(k) is the crowding of point perm.(k). *)
      let ok = ref true in
      Array.iteri
        (fun k p ->
          if not (Float.equal shuffled.(k) base.(p)) then ok := false)
        perm;
      !ok)

(* ----- hypervolume ----- *)

let prop_hv2_matches_grid =
  (* Exact sweep vs a midpoint-grid estimate of the dominated region:
     the grid resolves the staircase to ~1 cell per boundary step, so
     2% relative (plus a small absolute floor for tiny volumes) covers
     the discretization error. *)
  QCheck.Test.make ~name:"hv2 matches a brute-force grid estimate" ~count:60
    QCheck.(
      list_of_size (Gen.int_range 1 12)
        (pair (float_range 0.0 1.0) (float_range 0.0 1.0)))
    (fun pts ->
      let ref_ = (1.05, 1.05) in
      let exact = Opt.Hypervolume.hv2 ~ref_ pts in
      let n = 400 in
      let rx, ry = ref_ in
      let cell = rx /. float_of_int n *. (ry /. float_of_int n) in
      let count = ref 0 in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          let x = (float_of_int i +. 0.5) *. rx /. float_of_int n in
          let y = (float_of_int j +. 0.5) *. ry /. float_of_int n in
          if List.exists (fun (px, py) -> px <= x && py <= y) pts then
            incr count
        done
      done;
      let estimate = float_of_int !count *. cell in
      abs_float (exact -. estimate)
      <= (0.02 *. Float.max exact estimate) +. 2e-2)

let hypervolume_tests =
  [ case "hv2 of one corner point is the full box" (fun () ->
        check_close ~tol:1e-12 "unit box" 1.0
          (Opt.Hypervolume.hv2 ~ref_:(1.0, 1.0) [ (0.0, 0.0) ]));
    case "hv2 ignores dominated and out-of-box points" (fun () ->
        let front = [ (0.2, 0.8); (0.5, 0.5); (0.8, 0.2) ] in
        let noise = [ (0.6, 0.6); (1.5, 0.1); (0.1, 2.0) ] in
        check_close ~tol:1e-12 "noise-free"
          (Opt.Hypervolume.hv2 ~ref_:(1.0, 1.0) front)
          (Opt.Hypervolume.hv2 ~ref_:(1.0, 1.0) (front @ noise)));
    case "ratio of a front against itself is 1" (fun () ->
        let front = [ (0.2, 0.8); (0.5, 0.5); (0.8, 0.2) ] in
        check_close ~tol:1e-12 "self ratio" 1.0
          (Opt.Hypervolume.ratio ~truth:front front))
  ]

(* ----- oracle differential: heuristics vs exhaustive ----- *)

let pairs_of cs =
  List.map (fun c -> let o = Opt.Pareto.objectives c in (o.(0), o.(1))) cs

let show_front label cs =
  Printf.sprintf "%s front (%d points):\n%s" label (List.length cs)
    (String.concat "\n"
       (List.map
          (fun (d, e) -> Printf.sprintf "  d=%.6e  e=%.6e" d e)
          (pairs_of cs)))

let oracle_case name search_front =
  case name (fun () ->
      List.iter
        (fun capacity_bits ->
          let oracle, all =
            Opt.Exhaustive.search_all ~space:Opt.Space.reduced
              ~levels:levels_hvt ~env:env_hvt ~capacity_bits
              ~method_:Opt.Space.M2 ()
          in
          let truth = Opt.Pareto.front all in
          let res, front =
            search_front ~capacity_bits
          in
          (* Winner regret must be exactly zero: same score bits. *)
          if
            not
              (Float.equal res.Opt.Exhaustive.best.Opt.Exhaustive.score
                 oracle.Opt.Exhaustive.best.Opt.Exhaustive.score)
          then
            Alcotest.failf
              "%s at %dB: winner regret %.3e (heuristic %.17e vs oracle \
               %.17e)\n%s\n%s"
              name (capacity_bits / 8)
              (res.Opt.Exhaustive.best.Opt.Exhaustive.score
              -. oracle.Opt.Exhaustive.best.Opt.Exhaustive.score)
              res.Opt.Exhaustive.best.Opt.Exhaustive.score
              oracle.Opt.Exhaustive.best.Opt.Exhaustive.score
              (show_front "oracle" truth)
              (show_front "heuristic" front);
          (* The heuristic must not out-search the budget: it sees a
             strict subset of what the oracle decided. *)
          Alcotest.(check bool)
            (Printf.sprintf "%dB: evaluated within oracle's considered"
               (capacity_bits / 8))
            true
            (res.Opt.Exhaustive.evaluated
            <= oracle.Opt.Exhaustive.considered);
          let hv = Opt.Hypervolume.ratio ~truth:(pairs_of truth) (pairs_of front) in
          if hv < 0.99 then
            Alcotest.failf "%s at %dB: hypervolume ratio %.4f < 0.99\n%s\n%s"
              name (capacity_bits / 8) hv
              (show_front "oracle" truth)
              (show_front "heuristic" front))
        [ 128 * 8; 1024 * 8; 4 * 1024 * 8 ])

let oracle_tests =
  [ oracle_case "nsga2 recovers the exhaustive winner" (fun ~capacity_bits ->
        Opt.Nsga2.search_front ~space:Opt.Space.reduced ~levels:levels_hvt
          ~env:env_hvt ~capacity_bits ~method_:Opt.Space.M2 ());
    oracle_case "surrogate recovers the exhaustive winner"
      (fun ~capacity_bits ->
        (* Fallback disabled so the model path itself is under test even
           on the reduced grid. *)
        Opt.Surrogate.search_front ~space:Opt.Space.reduced
          ~levels:levels_hvt ~fallback_threshold:0 ~env:env_hvt
          ~capacity_bits ~method_:Opt.Space.M2 ())
  ]

(* ----- determinism across job counts ----- *)

let prop_nsga2_bit_identical_across_jobs =
  QCheck.Test.make ~name:"same-seed nsga2 is bit-identical at 1/2/4 jobs"
    ~count:6
    QCheck.(int_bound 10_000)
    (fun seed ->
      let sums =
        List.map
          (fun jobs ->
            let res =
              with_jobs jobs (fun () ->
                  Opt.Nsga2.search ~space:Opt.Space.reduced ~pop:8
                    ~generations:6 ~seed ~env:env_hvt
                    ~capacity_bits:(1024 * 8) ~method_:Opt.Space.M2 ())
            in
            Opt.Exhaustive.checksum [ res ])
          [ 1; 2; 4 ]
      in
      match sums with
      | [ a; b; c ] -> String.equal a b && String.equal b c
      | _ -> false)

let prop_surrogate_bit_identical_across_jobs =
  QCheck.Test.make ~name:"same-seed surrogate is bit-identical at 1/2/4 jobs"
    ~count:4
    QCheck.(int_bound 10_000)
    (fun seed ->
      let sums =
        List.map
          (fun jobs ->
            let res =
              with_jobs jobs (fun () ->
                  Opt.Surrogate.search ~space:Opt.Space.reduced ~seed
                    ~fallback_threshold:0 ~env:env_hvt
                    ~capacity_bits:(1024 * 8) ~method_:Opt.Space.M2 ())
            in
            Opt.Exhaustive.checksum [ res ])
          [ 1; 2; 4 ]
      in
      match sums with
      | [ a; b; c ] -> String.equal a b && String.equal b c
      | _ -> false)

(* ----- backfill: the Strategy refactor changed nothing ----- *)

(* The strongest available anchor: the full paper sweep driven through
   [Strategy.run Exhaustive] must still produce the winner checksum
   committed in BENCH_kernel.json (and pinned by test_properties via
   the direct [Exhaustive.search] path). *)
let full_sweep_checksum = "67fd83cd67998ac0"

let test_strategy_exhaustive_full_sweep () =
  let env_of =
    let lvt = Array_model.Array_eval.make_env ~cell_flavor:Finfet.Library.Lvt () in
    function Finfet.Library.Lvt -> lvt | Finfet.Library.Hvt -> env_hvt
  in
  let sweep jobs =
    with_jobs jobs @@ fun () ->
    let results =
      List.concat_map
        (fun capacity_bits ->
          List.map
            (fun (c : Sram_edp.Framework.config) ->
              Opt.Strategy.run Opt.Strategy.Exhaustive
                ~env:(env_of c.Sram_edp.Framework.flavor) ~capacity_bits
                ~method_:c.Sram_edp.Framework.method_ ())
            Sram_edp.Framework.all_configs)
        Sram_edp.Framework.paper_capacities
    in
    Opt.Exhaustive.checksum results
  in
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "Strategy-dispatched full-sweep checksum at %d jobs"
           jobs)
        full_sweep_checksum (sweep jobs))
    [ 1; 2; 4 ]

let test_strategy_matches_direct_calls () =
  let capacity_bits = 1024 * 8 and method_ = Opt.Space.M2 in
  let common = (Opt.Space.reduced, env_hvt) in
  let space, env = common in
  let via st =
    Opt.Strategy.run st ~space ~rng_seed:7 ~env
      ~capacity_bits ~method_ ()
  in
  let pairs =
    [ ( "local",
        via Opt.Strategy.Local_search,
        Opt.Local_search.search ~space ~env ~capacity_bits ~method_ () );
      ( "anneal",
        via Opt.Strategy.Anneal,
        Opt.Anneal.search ~space ~seed:7 ~env ~capacity_bits ~method_ () ) ]
  in
  List.iter
    (fun (name, a, b) ->
      Alcotest.(check string)
        (name ^ " via Strategy = direct call")
        (Opt.Exhaustive.checksum [ b ])
        (Opt.Exhaustive.checksum [ a ]))
    pairs

let test_surrogate_fallback_is_exhaustive () =
  (* A space below the fallback threshold must be searched outright:
     same winner as the exhaustive engine, bit for bit, and the true
     front. *)
  let space =
    { Opt.Space.vssc_values = [| 0.0; -0.1; -0.2 |];
      nr_values = [| 64; 128; 256 |];
      n_pre_values = [| 2; 4 |];
      n_wr_values = [| 2; 4 |] }
  in
  let capacity_bits = 1024 * 8 and method_ = Opt.Space.M2 in
  let sres, sfront =
    Opt.Surrogate.search_front ~space ~levels:levels_hvt ~env:env_hvt
      ~capacity_bits ~method_ ()
  in
  let eres, all =
    Opt.Exhaustive.search_all ~space ~levels:levels_hvt ~env:env_hvt
      ~capacity_bits ~method_ ()
  in
  Alcotest.(check string)
    "fallback winner = exhaustive winner"
    (Opt.Exhaustive.checksum [ eres ])
    (Opt.Exhaustive.checksum [ sres ]);
  Alcotest.(check int)
    "fallback front = true front"
    (List.length (Opt.Pareto.front all))
    (List.length sfront)

(* ----- the strategy contract: one set of knobs, every engine ----- *)

(* 4 x 6 x 3 geometries x 9 V_SSC = 648 points: below the surrogate's
   exhaustive fallback, so its deadline goes through [search_all]. *)
let small_space =
  { Opt.Space.reduced with
    Opt.Space.nr_values = [| 32; 64; 128; 256 |];
    n_pre_values = [| 2; 4; 6; 8; 12; 16 |];
    n_wr_values = [| 2; 4; 6 |] }

let test_expired_deadline space () =
  let capacity_bits = 1024 * 8 and method_ = Opt.Space.M2 in
  let deadline = Obs.Clock.now () -. 1.0 in
  let ran_past what f =
    match f () with
    | exception Opt.Exhaustive.Deadline_exceeded -> []
    | _ -> [ what ]
  in
  let runs =
    List.concat_map
      (fun st ->
        ran_past ("run " ^ Opt.Strategy.name st) (fun () ->
            Opt.Strategy.run st ~space ~deadline ~env:env_hvt ~capacity_bits
              ~method_ ()))
      all_strategies
  in
  (* The front search that takes a deadline (the explainer's; the
     NSGA-II and surrogate front searches run without one). *)
  let fronts =
    ran_past "Exhaustive.search_all" (fun () ->
        fst
          (Opt.Exhaustive.search_all ~space ~levels:levels_hvt ~deadline
             ~env:env_hvt ~capacity_bits ~method_ ()))
  in
  (* A journaled search stops at its first chunk's first geometry, so
     it records no chunk. *)
  let path = Filename.temp_file "expired_deadline" ".rlog" in
  let open_journal resume =
    match Persist.Checkpoint.create ~path ~resume ~checkpoint_every:5 () with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  let journal = open_journal false in
  let journaled =
    ran_past "journaled Exhaustive.search" (fun () ->
        with_journal journal (fun () ->
            Opt.Exhaustive.search ~space ~levels:levels_hvt ~deadline
              ~env:env_hvt ~capacity_bits ~method_ ()))
  in
  Persist.Checkpoint.close journal;
  let journal = open_journal true in
  let recorded = Persist.Checkpoint.replayed journal in
  Persist.Checkpoint.close journal;
  Sys.remove path;
  Alcotest.(check (list string)) "ran past an expired deadline" []
    (runs @ fronts @ journaled);
  Alcotest.(check int) "chunks recorded under an expired deadline" 0 recorded

(* The exhaustive search samples the clock under a deadline; one that
   never expires must leave the search exactly as it is without one:
   the same winner and, at one job, the same counts. *)
let test_far_deadline_changes_nothing () =
  with_jobs 1 @@ fun () ->
  List.iter
    (fun (capacity_bits, method_) ->
      let search ?deadline () =
        Opt.Exhaustive.search ~levels:levels_hvt ?deadline ~env:env_hvt
          ~capacity_bits ~method_ ()
      in
      let plain = search () in
      let timed = search ~deadline:(Obs.Clock.now () +. 1e5) () in
      let counts (r : Opt.Exhaustive.result) =
        Opt.Exhaustive.(r.evaluated, r.pruned, r.skipped)
      in
      Alcotest.(check string) "winner"
        (Opt.Exhaustive.checksum [ plain ])
        (Opt.Exhaustive.checksum [ timed ]);
      Alcotest.(check (triple int int int)) "evaluated, pruned, skipped"
        (counts plain) (counts timed))
    [ (1024 * 8, Opt.Space.M2); (4096 * 8, Opt.Space.M1);
      (16384 * 8, Opt.Space.M2) ]

(* A search keeps no front: NSGA-II stages one geometry per line it
   scans and one for the winner it returns. *)
let test_nsga2_search_stages_no_front () =
  let staged = Runtime.Telemetry.counter "array_eval.stage" in
  let before = Runtime.Telemetry.value staged in
  let r =
    Opt.Nsga2.search ~space:Opt.Space.reduced ~env:env_hvt
      ~capacity_bits:(1024 * 8) ~method_:Opt.Space.M2 ()
  in
  let nv = Array.length Opt.Space.reduced.Opt.Space.vssc_values in
  Alcotest.(check int) "geometries staged" ((r.Opt.Exhaustive.evaluated / nv) + 1)
    (Runtime.Telemetry.value staged - before)

(* The name each Line_cache engine journals incumbents under. *)
let journal_source = function
  | Opt.Strategy.Exhaustive -> None
  | Opt.Strategy.Local_search -> Some "local_search"
  | Opt.Strategy.Anneal -> Some "anneal"
  | Opt.Strategy.Nsga2 -> Some "nsga2"
  | Opt.Strategy.Surrogate -> Some "surrogate"

(* A random sub-grid of the reduced space: every axis keeps a non-empty
   ordered subset of its values. *)
let contract_case_arb =
  let open QCheck.Gen in
  let subset values =
    let n = Array.length values in
    let* keep = array_repeat n bool in
    let* fallback = int_bound (n - 1) in
    let kept = List.filteri (fun i _ -> keep.(i)) (Array.to_list values) in
    return (if kept = [] then [| values.(fallback) |] else Array.of_list kept)
  in
  let r = Opt.Space.reduced in
  let gen =
    let* vssc_values = subset r.Opt.Space.vssc_values in
    let* nr_values = subset r.Opt.Space.nr_values in
    let* n_pre_values = subset r.Opt.Space.n_pre_values in
    let* n_wr_values = subset r.Opt.Space.n_wr_values in
    let* objective =
      oneofl
        [ Opt.Objective.Energy_delay_product;
          Opt.Objective.Energy_delay_squared; Opt.Objective.Energy_only;
          Opt.Objective.Delay_only ]
    in
    let* method_ = oneofl [ Opt.Space.M1; Opt.Space.M2 ] in
    return
      ( { Opt.Space.vssc_values; nr_values; n_pre_values; n_wr_values },
        objective,
        method_ )
  in
  let print (sp, objective, method_) =
    let ints a = String.concat "," (List.map string_of_int (Array.to_list a)) in
    Printf.sprintf "%s %s vssc=%d nr=[%s] n_pre=[%s] n_wr=[%s]"
      (Opt.Objective.name objective)
      (Opt.Space.method_name method_)
      (Array.length sp.Opt.Space.vssc_values)
      (ints sp.Opt.Space.nr_values)
      (ints sp.Opt.Space.n_pre_values)
      (ints sp.Opt.Space.n_wr_values)
  in
  QCheck.make ~print gen

let prop_strategy_contract =
  QCheck.Test.make
    ~name:"engines never beat the oracle, are jobs-invariant and journal"
    ~count:20 contract_case_arb (fun (space, objective, method_) ->
      let capacity_bits = 1024 * 8 in
      let run jobs st =
        with_jobs jobs @@ fun () ->
        match st with
        | Opt.Strategy.Surrogate ->
          (* The model path, even on sub-grids below the fallback. *)
          Opt.Surrogate.search ~space ~objective ~fallback_threshold:0
            ~env:env_hvt ~capacity_bits ~method_ ()
        | st ->
          Opt.Strategy.run st ~space ~objective ~env:env_hvt ~capacity_bits
            ~method_ ()
      in
      let fingerprint (r : Opt.Exhaustive.result) =
        (Opt.Exhaustive.checksum [ r ], r.Opt.Exhaustive.evaluated)
      in
      let score (r : Opt.Exhaustive.result) =
        r.Opt.Exhaustive.best.Opt.Exhaustive.score
      in
      let oracle = score (run 1 Opt.Strategy.Exhaustive) in
      let check st =
        let name = Opt.Strategy.name st in
        Obs.Search.arm ();
        let r = run 1 st in
        let sources =
          List.filter_map
            (fun (e : Obs.Search.event) ->
              if e.Obs.Search.kind = Obs.Search.Incumbent then
                Some e.Obs.Search.source
              else None)
            (Obs.Search.events ())
        in
        Obs.Search.disarm ();
        if score r < oracle then
          QCheck.Test.fail_reportf "%s scores %.17g below the oracle's %.17g"
            name (score r) oracle;
        match journal_source st with
        | None -> ()
        | Some src ->
          if not (List.mem src sources) then
            QCheck.Test.fail_reportf "%s journaled no incumbent as %S" name
              src;
          if fingerprint r <> fingerprint (run 2 st) then
            QCheck.Test.fail_reportf "%s differs between jobs 1 and 2" name
      in
      Fun.protect
        ~finally:Obs.Search.disarm
        (fun () -> List.iter check all_strategies);
      true)

(* ----- the --method / wire grammar ----- *)

let strategy_grammar_tests =
  [ case "parse_method accepts pins, strategies and both" (fun () ->
        let check_parse s expected =
          Alcotest.(check bool)
            (Printf.sprintf "parse %S" s)
            true
            (Opt.Strategy.parse_method s = expected)
        in
        check_parse "m1" (Some (Some Opt.Space.M1, None));
        check_parse "M2" (Some (Some Opt.Space.M2, None));
        check_parse "nsga2" (Some (None, Some Opt.Strategy.Nsga2));
        check_parse "  Surrogate " (Some (None, Some Opt.Strategy.Surrogate));
        check_parse "m1:nsga2"
          (Some (Some Opt.Space.M1, Some Opt.Strategy.Nsga2));
        check_parse "m2:anneal"
          (Some (Some Opt.Space.M2, Some Opt.Strategy.Anneal));
        check_parse "bogus" None;
        check_parse "m3:nsga2" None;
        check_parse "m1:bogus" None);
    case "strategy names round-trip through of_name" (fun () ->
        List.iter
          (fun st ->
            match Opt.Strategy.of_name (Opt.Strategy.name st) with
            | Some st' when st' = st -> ()
            | _ ->
              Alcotest.failf "round-trip failed for %s" (Opt.Strategy.name st))
          all_strategies)
  ]

let () =
  Alcotest.run "moo"
    [ ( "moo-primitives",
        List.map to_alco
          [ prop_sort_consistent_with_dominates;
            prop_moo_dominates_matches_pareto;
            prop_crowding_permutation_invariant ] );
      ("hypervolume", hypervolume_tests @ [ to_alco prop_hv2_matches_grid ]);
      ("oracle", oracle_tests);
      ( "determinism",
        List.map to_alco
          [ prop_nsga2_bit_identical_across_jobs;
            prop_surrogate_bit_identical_across_jobs ] );
      ( "strategy-backfill",
        [ slow_case "exhaustive via Strategy reproduces the full-sweep \
                     checksum"
            test_strategy_exhaustive_full_sweep;
          case "local and anneal via Strategy match direct calls"
            test_strategy_matches_direct_calls;
          case "surrogate below threshold falls back to exhaustive"
            test_surrogate_fallback_is_exhaustive ] );
      ( "strategy-contract",
        [ case "every engine stops on an expired deadline (reduced space)"
            (test_expired_deadline Opt.Space.reduced);
          case "every engine stops on an expired deadline (small space)"
            (fun () ->
              Alcotest.(check bool) "below the surrogate's fallback" true
                (Opt.Space.size small_space ~capacity_bits:(1024 * 8)
                   Opt.Space.M2
                <= Opt.Surrogate.default_fallback_threshold);
              test_expired_deadline small_space ());
          case "a far deadline changes no exhaustive winner or count"
            test_far_deadline_changes_nothing;
          case "an NSGA-II search stages its lines and winner, no front"
            test_nsga2_search_stages_no_front;
          to_alco prop_strategy_contract ] );
      ("strategy-grammar", strategy_grammar_tests)
    ]
