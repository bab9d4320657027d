(* Golden-file regression tests: regenerate each artifact with
   Testutil.Golden_gen and diff it against the committed copy in
   test/golden/ (staged through dune's deps so the files are beside the
   test binary).  A mismatch prints a line-level diff; if the change is
   intentional, run `make regen-golden` and commit the result. *)

open Testutil

let golden_dir = "golden"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

let first_diff expected actual =
  let e = String.split_on_char '\n' expected in
  let a = String.split_on_char '\n' actual in
  let rec go n e a =
    match (e, a) with
    | [], [] -> None
    | x :: e', y :: a' when String.equal x y -> go (n + 1) e' a'
    | e, a ->
      let head = function [] -> "<end of file>" | x :: _ -> x in
      Some (n, head e, head a)
  in
  go 1 e a

let check_golden name =
  case name (fun () ->
      let path = Filename.concat golden_dir name in
      if not (Sys.file_exists path) then
        Alcotest.failf "golden file %s missing — run `make regen-golden`" path;
      let expected = read_file path in
      let actual = List.assoc name (Golden_gen.files ()) in
      if not (String.equal expected actual) then
        match first_diff expected actual with
        | Some (line, e, a) ->
          Alcotest.failf
            "%s differs at line %d:\n  golden: %s\n  actual: %s\n\
             If intentional, run `make regen-golden` and commit."
            name line e a
        | None ->
          Alcotest.failf "%s differs (same lines, different bytes)" name)

let structure_tests =
  [ case "table4 golden is valid JSON with one row per design" (fun () ->
        let n_expected =
          List.length Golden_gen.capacities
          * List.length Sram_edp.Framework.all_configs
        in
        match Persist.Json.of_string (Golden_gen.table4_json ()) with
        | Error msg -> Alcotest.failf "table4.json does not parse: %s" msg
        | Ok v ->
          (match Persist.Json.to_list v with
          | Some rows -> Alcotest.(check int) "rows" n_expected (List.length rows)
          | None -> Alcotest.fail "table4.json is not a JSON array"));
    case "stats schema covers every section of the serving payload"
      (fun () ->
        match Persist.Json.of_string (Golden_gen.stats_schema ()) with
        | Error msg -> Alcotest.failf "stats.json does not parse: %s" msg
        | Ok v ->
          List.iter
            (fun key ->
              if Persist.Json.member key v = None then
                Alcotest.failf "stats schema lost its %S section" key)
            [ "jobs"; "telemetry"; "memos"; "histograms"; "windows";
              "server" ]);
  ]

let () =
  Alcotest.run "golden"
    [ ( "files",
        List.map check_golden
          [ "table4.json"; "report.txt"; "datasheet.txt"; "stats.json";
            "strategies.json"; "physics.json" ] );
      ("structure", structure_tests);
    ]
