(* The benchmark's own arithmetic and generators; no process is spawned. *)

open Perfbench
module P = Serve.Protocol

let samples n = Array.init n (fun i -> float_of_int (n - i))

let test_p90_refused_below_100 () =
  (match Stat.p90 (samples 99) with
   | Ok _ -> Alcotest.fail "p90 of 99 samples must be refused"
   | Error _ -> ());
  match Stat.p90 (samples 100) with
  | Error e -> Alcotest.fail e
  | Ok v ->
    let beyond = Array.fold_left (fun n x -> if x > v then n + 1 else n) 0 (samples 100) in
    Alcotest.(check (float 0.0)) "p90 of 1..100" 90.0 v;
    Alcotest.(check int) "samples beyond p90" 10 beyond

let test_median () =
  Alcotest.(check (float 0.0)) "odd" 2.0 (Stat.median [| 3.0; 1.0; 2.0 |]);
  Alcotest.(check (float 0.0)) "even" 2.5 (Stat.median [| 4.0; 1.0; 3.0; 2.0 |])

let keys stream n = List.map Gen.key (Gen.take stream n)

let test_deterministic () =
  List.iter
    (fun (name, w) ->
      let a = keys (Gen.stream w ~seed:7) 200 and b = keys (Gen.stream w ~seed:7) 200 in
      Alcotest.(check (list string)) (name ^ ": same seed, same stream") a b;
      let c = keys (Gen.stream w ~seed:8) 200 in
      Alcotest.(check bool) (name ^ ": another seed, another stream") true (a <> c))
    Gen.workloads

let test_novel_keys () =
  List.iter
    (fun w ->
      let s = Gen.stream w ~seed:3 in
      let setup = List.map Gen.key s.Gen.setup in
      let timed = keys s 2000 in
      Alcotest.(check int)
        (Gen.name w ^ ": timed keys are distinct")
        (List.length timed)
        (List.length (List.sort_uniq compare timed));
      Alcotest.(check bool)
        (Gen.name w ^ ": timed keys avoid the setup's")
        false
        (List.exists (fun k -> List.mem k setup) timed))
    [ Gen.Oneshot_cachedir; Gen.Served_novel ]

let test_repeating_keys () =
  let cold = Gen.take (Gen.stream Gen.Oneshot_cold ~seed:5) 30 in
  let cycle i = List.sort compare (List.map Gen.key (List.filteri (fun j _ -> j / 10 = i) cold)) in
  Alcotest.(check (list string)) "each cycle visits the ten HVT points" (cycle 0) (cycle 1);
  Alcotest.(check int) "ten points per cycle" 10 (List.length (List.sort_uniq compare (cycle 2)));
  Alcotest.(check bool) "oneshot-cold is HVT only" true
    (List.for_all (fun q -> q.P.flavor = Finfet.Library.Hvt) cold)

(* oneshot-cachedir: a cycle of 40 requests holds every (capacity,
   method, accounting) once, whatever the seed. *)
let test_cachedir_mix () =
  let shape (q : P.query) = (q.P.capacity_bits, q.P.method_, q.P.accounting) in
  let cycle seed i =
    Gen.take (Gen.stream Gen.Oneshot_cachedir ~seed) 80
    |> List.filteri (fun j _ -> j / 40 = i)
    |> List.map shape |> List.sort compare
  in
  Alcotest.(check int) "40 distinct shapes per cycle" 40
    (List.length (List.sort_uniq compare (cycle 4 0)));
  Alcotest.(check bool) "same mix in every cycle and seed" true
    (cycle 4 0 = cycle 4 1 && cycle 4 0 = cycle 9 0)

let test_failures_counted () =
  let t = Tally.create () in
  Tally.answer t ~key:"a" ~checksum:"1";
  Tally.answer t ~key:"a" ~checksum:"1";
  Tally.answer t ~key:"b" ~checksum:"2";
  let right = function "a" -> Some "1" | "b" -> Some "2" | _ -> None in
  Alcotest.(check int) "all answers right" 0 (Tally.failed t ~reference:right);
  let wrong = function "a" -> Some "9" | k -> right k in
  Alcotest.(check int) "a wrong reference fails both of its answers" 2
    (Tally.failed t ~reference:wrong);
  Tally.error t "internal: boom";
  let failed = Tally.failed t ~reference:right in
  Alcotest.(check int) "an error response fails" 1 failed;
  Alcotest.(check (float 1e-12)) "error rate" 0.25 (Tally.error_rate t ~failed)

let span id ?(parent = -1) a b =
  { Span.id; name = "s"; rid = 0; parent; start_s = a; end_s = b }

let test_self_time () =
  let spans =
    [ span 0 0.0 10.0;
      span 1 ~parent:0 1.0 3.0;
      span 2 ~parent:0 2.0 5.0;
      span 3 ~parent:0 7.0 8.0;
      span 4 ~parent:0 9.0 12.0;
      span 5 ~parent:3 7.0 7.5 ]
  in
  let self = Span.self_times spans in
  let of_id i = List.assoc i (List.map (fun ((s : Span.t), t) -> (s.Span.id, t)) self) in
  Alcotest.(check (float 1e-12)) "root minus its merged, clipped children" 4.0 (of_id 0);
  Alcotest.(check (float 1e-12)) "leaf keeps its duration" 2.0 (of_id 1);
  Alcotest.(check (float 1e-12)) "child minus its own child" 0.5 (of_id 3)

let () =
  Alcotest.run "perfbench"
    [ ("stat",
       [ Alcotest.test_case "p90 refused below 100 samples" `Quick test_p90_refused_below_100;
         Alcotest.test_case "median" `Quick test_median ]);
      ("gen",
       [ Alcotest.test_case "deterministic per seed" `Quick test_deterministic;
         Alcotest.test_case "novel keys distinct and disjoint from setup" `Quick test_novel_keys;
         Alcotest.test_case "repeating workloads" `Quick test_repeating_keys;
         Alcotest.test_case "cache-dir mix per cycle" `Quick test_cachedir_mix ]);
      ("tally", [ Alcotest.test_case "failures counted" `Quick test_failures_counted ]);
      ("span", [ Alcotest.test_case "self time" `Quick test_self_time ]) ]
