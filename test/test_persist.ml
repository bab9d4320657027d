(* Tests for lib/persist: JSON codec round-trips (QCheck), CRC32
   vectors, record-log crash recovery (torn tails, corrupted CRCs,
   injected short writes), the disk cache's degrade-don't-fail policy,
   and the headline checkpoint/resume property — a sweep killed at an
   injected record boundary and resumed from its journal produces a
   bit-identical winner checksum to an uninterrupted run at any job
   count. *)

open Testutil
module J = Persist.Json

(* ----- scratch files ----- *)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let tmp_root =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "sram_opt_test_persist_%d" (Unix.getpid ()))
  in
  (if not (Sys.file_exists d) then Sys.mkdir d 0o755);
  at_exit (fun () -> try rm_rf d with Sys_error _ -> ());
  d

let fresh =
  let n = ref 0 in
  fun name ->
    incr n;
    Filename.concat tmp_root (Printf.sprintf "%s_%d.rlog" name !n)

let rm path = if Sys.file_exists path then Sys.remove path

(* Every fault test must leave the process-wide fault state clean, and
   must reset the data-record counter *immediately before* arming so
   that records appended by earlier tests in this process don't shift
   the fault's firing point. *)
let with_faults faults f =
  Persist.Faults.disarm_all ();
  List.iter Persist.Faults.arm faults;
  Fun.protect ~finally:Persist.Faults.disarm_all f

(* ----- Json ----- *)

let rec json_eq a b =
  match (a, b) with
  | J.Null, J.Null -> true
  | J.Bool x, J.Bool y -> x = y
  | J.Int x, J.Int y -> x = y
  | J.Float x, J.Float y -> Int64.bits_of_float x = Int64.bits_of_float y
  | J.String x, J.String y -> String.equal x y
  | J.List x, J.List y ->
    List.length x = List.length y && List.for_all2 json_eq x y
  | J.Obj x, J.Obj y ->
    List.length x = List.length y
    && List.for_all2
         (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && json_eq v1 v2)
         x y
  | _ -> false

let roundtrip v =
  match J.of_string (J.to_string v) with
  | Ok v' -> v'
  | Error msg -> Alcotest.failf "parse error on %s: %s" (J.to_string v) msg

let json_gen =
  let open QCheck.Gen in
  let leaf =
    oneof
      [ return J.Null;
        map (fun b -> J.Bool b) bool;
        map (fun i -> J.Int i) int;
        map (fun f -> J.Float f) (float_range (-1e18) 1e18);
        map (fun f -> J.Float f) float;
        map (fun s -> J.String s) (string_size ~gen:printable (int_bound 12));
      ]
  in
  (* Non-finite floats have no JSON encoding; the emitter raises on
     them by contract, so keep the generator finite. *)
  let finite = function
    | J.Float f when not (Float.is_finite f) -> J.Null
    | v -> v
  in
  let leaf = map finite leaf in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else
        frequency
          [ (3, leaf);
            (1, map (fun l -> J.List l) (list_size (int_bound 4) (self (depth - 1))));
            ( 1,
              map
                (fun kvs -> J.Obj kvs)
                (list_size (int_bound 4)
                   (pair (string_size ~gen:printable (int_bound 8)) (self (depth - 1)))) );
          ])
    3

let json_arb =
  QCheck.make ~print:(fun v -> J.to_string v) json_gen

(* Bytes a parser meets: mostly the JSON alphabet, some of any value,
   and now and then a valid document with a few bytes overwritten. *)
let json_bytes_gen =
  let open QCheck.Gen in
  let alphabet = "{}[]:,\"\\ \t\n0123456789-+.eEtrufalsn\\u" in
  let byte = frequency [ (4, oneofl (List.of_seq (String.to_seq alphabet))); (1, char) ] in
  let mutated =
    let* doc = map J.to_string json_gen in
    let* edits = list_size (int_range 1 4) (pair nat byte) in
    let b = Bytes.of_string doc in
    if Bytes.length b > 0 then
      List.iter (fun (i, c) -> Bytes.set b (i mod Bytes.length b) c) edits;
    return (Bytes.to_string b)
  in
  frequency [ (3, string_size ~gen:byte (int_bound 64)); (2, mutated) ]

(* [depth] containers, each the only member of the one around it. *)
let nested ~depth (opening, empty, closing) =
  let repeat s = String.concat "" (List.init (depth - 1) (fun _ -> s)) in
  repeat opening ^ empty ^ repeat closing

let arrays = ("[", "[]", "]")

(* The scanner against the parser it replaced: the same tree or the
   same error, [valid] exactly when that is a tree, and [member_spans]
   naming an object's members with spans that decode to its values.
   The same bytes set inside other bytes scan the same in place. *)
let agrees_with_oracle s =
  let oracle = Persist_oracle.Json.of_string s in
  let n = String.length s in
  let same a b =
    match (a, b) with
    | Ok x, Ok y -> json_eq x y
    | Error e, Error f -> String.equal e f
    | _ -> false
  in
  let padded = "[{\"" ^ s ^ "1 " in
  let spans_agree =
    match (oracle, J.member_spans s 0 n) with
    | Ok (J.Obj fields), Some spans ->
      List.length fields = List.length spans
      && List.for_all2
           (fun (k, v) (k', pos, len) ->
             String.equal k k'
             && same (Ok v) (J.of_substring s pos len))
           fields spans
    | Ok (J.Obj _), None -> false
    | _, spans -> spans = None
  in
  same (J.of_string s) oracle
  && J.valid s 0 n = Result.is_ok oracle
  && J.valid padded 3 n = Result.is_ok oracle
  && Result.is_ok (J.of_substring padded 3 n) = Result.is_ok oracle
  && spans_agree

(* Every string of [1 .. max_len] characters over [alphabet]. *)
let iter_strings alphabet max_len f =
  let rec go prefix len =
    if len > 0 then
      String.iter
        (fun c ->
          let s = prefix ^ String.make 1 c in
          f s;
          go s (len - 1))
        alphabet
  in
  go "" max_len

let json_tests =
  [ case "scalars round-trip" (fun () ->
        List.iter
          (fun v -> Alcotest.(check bool) (J.to_string v) true (json_eq v (roundtrip v)))
          [ J.Null; J.Bool true; J.Bool false; J.Int 0; J.Int (-42);
            J.Int max_int; J.Int min_int; J.Float 0.5; J.Float (-0.0);
            J.Float 1.2345678901234567e-300; J.String ""; J.String "plain";
            J.List []; J.Obj [] ]);
    case "string escapes and unicode round-trip" (fun () ->
        let v = J.String "a\"b\\c\nd\te\r\x01 \xe2\x82\xac" in
        Alcotest.(check bool) "escaped" true (json_eq v (roundtrip v)));
    case "emitter rejects non-finite floats" (fun () ->
        List.iter
          (fun f ->
            match J.to_string (J.Float f) with
            | exception Invalid_argument _ -> ()
            | s -> Alcotest.failf "non-finite float emitted as %s" s)
          [ Float.nan; Float.infinity; Float.neg_infinity ]);
    case "parser rejects trailing garbage and truncation" (fun () ->
        List.iter
          (fun s ->
            match J.of_string s with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "accepted malformed input %S" s)
          [ "{\"a\":1} x"; "[1,2"; "{\"a\"}"; ""; "nul"; "1.2.3" ]);
    case "accessors" (fun () ->
        let v = J.Obj [ ("n", J.Int 3); ("x", J.Float 2.5); ("s", J.String "hi") ] in
        Alcotest.(check (option int)) "int_field" (Some 3) (J.int_field v "n");
        Alcotest.(check bool) "int promotes to float" true
          (J.float_field v "n" = Some 3.0);
        Alcotest.(check (option string)) "string_field" (Some "hi") (J.string_field v "s");
        Alcotest.(check (option int)) "missing" None (J.int_field v "zzz"));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"random documents round-trip bit-exactly" ~count:500
         json_arb (fun v -> json_eq v (roundtrip v)));
    case "nesting is refused one level past 64, arrays and objects" (fun () ->
        List.iter
          (fun shape ->
            let doc = nested ~depth:64 shape in
            (match J.of_string doc with
             | Ok _ -> ()
             | Error e -> Alcotest.failf "64 levels refused (%s): %s" doc e);
            match J.of_string (nested ~depth:65 shape) with
            | Ok _ -> Alcotest.failf "65 levels accepted: %s" doc
            | Error e ->
              Alcotest.(check bool) ("names the limit: " ^ e) true
                (String.starts_with ~prefix:"nesting deeper than 64 levels" e))
          [ arrays; ("{\"a\":", "{}", "}") ]);
    case "a 4 MiB nested document fails fast" (fun () ->
        let doc = nested ~depth:((4 * 1024 * 1024 / 2) - 2) arrays in
        let t0 = Unix.gettimeofday () in
        (match J.of_string doc with
         | Ok _ -> Alcotest.fail "accepted"
         | Error _ -> ());
        let dt = Unix.gettimeofday () -. t0 in
        Alcotest.(check bool) (Printf.sprintf "refused in %.3f s" dt) true (dt < 0.25));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"arbitrary bytes parse or fail, never raise" ~count:3000
         (QCheck.make ~print:(Printf.sprintf "%S") json_bytes_gen)
         (fun s ->
           match J.of_string s with
           | Ok _ | Error _ -> true
           | exception e ->
             QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"scanner agrees with the old parser on any bytes" ~count:3000
         (QCheck.make ~print:(Printf.sprintf "%S") json_bytes_gen)
         agrees_with_oracle);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"scanner agrees with the old parser on documents" ~count:500
         json_arb
         (fun v ->
           agrees_with_oracle (J.to_string v)
           && agrees_with_oracle (J.to_string_pretty v)));
    case "scanner agrees with the old parser on every short number run" (fun () ->
        (* Every run of up to four number characters, and of up to six
           over 0, 1, 9 and the five marks: the grammar and both
           conversions treat the digits 1-9 alike, and 0 only differs
           before a radix letter no run can hold.  Ints near the bounds
           of [int] read as Int or, past them, as Float. *)
        let bad = ref [] in
        let check s = if not (agrees_with_oracle s) then bad := s :: !bad in
        iter_strings "0123456789+-.eE" 4 check;
        iter_strings "019+-.eE" 6 check;
        List.iter check
          [ string_of_int max_int; string_of_int min_int;
            "4611686018427387904"; "-4611686018427387905";
            "99999999999999999999"; "1e400"; "-1e-400"; "1.7976931348623157e308";
            "0.55000000000000004"; "-0"; "+0"; "-.5"; "+.5e+5"; "5."; "1.e5" ];
        Alcotest.(check (list string)) "runs read differently" [] (List.rev !bad));
  ]

(* ----- Crc32 ----- *)

let crc_tests =
  [ case "known vectors" (fun () ->
        (* The canonical CRC-32 check value, plus the empty string. *)
        Alcotest.(check int) "123456789" 0xCBF43926 (Persist.Crc32.string "123456789");
        Alcotest.(check int) "empty" 0 (Persist.Crc32.string ""));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"update composes like a single pass" ~count:200
         QCheck.(pair string string)
         (fun (a, b) ->
           let whole = Persist.Crc32.string (a ^ b) in
           let split =
             Persist.Crc32.update
               (Persist.Crc32.update 0 a 0 (String.length a))
               b 0 (String.length b)
           in
           whole = split));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"slicing-by-8 equals the bytewise CRC in place" ~count:2000
         (QCheck.make
            ~print:(fun (s, start, lens) ->
              Printf.sprintf "%S from %d by [%s]" s start
                (String.concat "; " (List.map string_of_int lens)))
            QCheck.Gen.(
              let* s = string_size ~gen:char (int_bound 300) in
              let* start = int_bound (String.length s) in
              let* lens =
                list_size (int_range 1 6) (frequency [ (4, int_bound 16); (1, int_bound 300) ])
              in
              return (s, start, lens)))
         (fun (s, start, lens) ->
           (* Chained updates over consecutive ranges, each clamped to the
              string: the same running value, and the same as one pass. *)
           let rec chain crc oracle pos = function
             | [] -> crc = oracle && crc = Persist_oracle.Crc32.update 0 s start (pos - start)
             | len :: rest ->
               let len = min len (String.length s - pos) in
               let crc = Persist.Crc32.update crc s pos len
               and oracle = Persist_oracle.Crc32.update oracle s pos len in
               crc = oracle && chain crc oracle (pos + len) rest
           in
           chain 0 0 start lens));
    case "update refuses a range outside the string" (fun () ->
        List.iter
          (fun (pos, len) ->
            match Persist.Crc32.update 0 "abcdefgh" pos len with
            | exception Invalid_argument _ -> ()
            | _ -> Alcotest.failf "accepted pos %d len %d" pos len)
          [ (-1, 2); (0, 9); (8, 1); (3, -1) ]);
  ]

(* ----- Record_log ----- *)

let mk_records n =
  List.init n (fun i ->
      J.Obj [ ("i", J.Int i); ("x", J.Float (1.0 /. float_of_int (i + 3))) ])

let write_log path records =
  let t = Persist.Record_log.create ~path ~schema:"test" () in
  List.iter (Persist.Record_log.append t) records;
  Persist.Record_log.close t

let read_ok path =
  match Persist.Record_log.read ~path with
  | Ok r -> r
  | Error msg -> Alcotest.failf "read %s: %s" path msg

let file_size path = (Unix.stat path).Unix.st_size

let truncate_by path k =
  let size = file_size path in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd (size - k);
  Unix.close fd

let corrupt_byte path off =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let b = Bytes.create 1 in
  ignore (Unix.read fd b 0 1);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xFF));
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  ignore (Unix.write fd b 0 1);
  Unix.close fd

let check_records msg expected actual =
  Alcotest.(check int) (msg ^ ": count") (List.length expected) (List.length actual);
  List.iter2
    (fun e a -> Alcotest.(check bool) (msg ^ ": payload") true (json_eq e a))
    expected actual

(* One frame of the log format around [payload], its CRC correct. *)
let raw_frame payload =
  let u32 v = String.init 4 (fun i -> Char.chr ((v lsr (8 * i)) land 0xFF)) in
  u32 (String.length payload) ^ u32 (Persist.Crc32.string payload) ^ payload

let append_bytes path bytes =
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644 in
  ignore (Unix.write_substring fd bytes 0 (String.length bytes));
  Unix.close fd

(* A log's data frames as an open meets them: object records, other
   JSON values, and frames whose CRC is good but whose JSON is not (an
   object missing its closing brace, an unclosed array, a value with
   garbage after it), each payload now and then padded with whitespace;
   then how many bytes a torn tail takes off the end. *)
let log_frames_gen =
  let open QCheck.Gen in
  let obj =
    map
      (fun kvs -> J.to_string (J.Obj kvs))
      (list_size (int_bound 4) (pair (string_size ~gen:printable (int_bound 8)) json_gen))
  in
  let other = map (function J.Obj _ -> "[]" | v -> J.to_string v) json_gen in
  let bad =
    oneof
      [ map (fun doc -> String.sub doc 0 (String.length doc - 1)) obj;
        map (fun doc -> "[" ^ doc) other;
        map (fun doc -> doc ^ " x") other ]
  in
  let pad = frequency [ (3, return ""); (1, oneofl [ " "; "\n\t " ]) ] in
  let padded doc = map2 (fun l r -> l ^ doc ^ r) pad pad in
  let payload = frequency [ (4, obj); (2, other); (1, bad) ] >>= padded in
  pair (list_size (int_bound 8) payload) (frequency [ (2, return 0); (1, int_bound 12) ])

let print_log_frames (payloads, cut) =
  Printf.sprintf "[%s] cut %d" (String.concat "; " (List.map (Printf.sprintf "%S") payloads)) cut

let record_log_tests =
  [ case "write then read preserves order and header" (fun () ->
        let path = fresh "basic" in
        let records = mk_records 5 in
        write_log path records;
        let r = read_ok path in
        check_records "basic" records r.records;
        Alcotest.(check int) "recovered" 5 r.recovered;
        Alcotest.(check int) "no tail" 0 r.discarded_bytes;
        Alcotest.(check string) "schema" "test" r.header.Persist.Record_log.schema;
        rm path);
    case "truncated tail is dropped, prefix kept" (fun () ->
        let path = fresh "torn" in
        let records = mk_records 4 in
        write_log path records;
        truncate_by path 3;
        let r = read_ok path in
        check_records "torn" (mk_records 3) r.records;
        Alcotest.(check bool) "discarded > 0" true (r.discarded_bytes > 0);
        rm path);
    case "corrupted CRC drops the bad record, prefix kept" (fun () ->
        let path = fresh "crc" in
        write_log path (mk_records 3);
        let whole = read_ok path in
        (* Flip the last payload byte of the final frame: the length is
           intact, the CRC no longer matches. *)
        corrupt_byte path (whole.valid_end - 1);
        let r = read_ok path in
        check_records "crc" (mk_records 2) r.records;
        Alcotest.(check bool) "discarded > 0" true (r.discarded_bytes > 0);
        rm path);
    case "open_append replays then continues the same log" (fun () ->
        let path = fresh "cont" in
        write_log path (mk_records 2);
        (match Persist.Record_log.open_append ~path ~schema:"test" () with
        | Error msg -> Alcotest.fail msg
        | Ok (t, replayed) ->
          check_records "replayed" (mk_records 2) replayed;
          Persist.Record_log.append t (J.Obj [ ("i", J.Int 99) ]);
          Persist.Record_log.close t);
        let r = read_ok path in
        Alcotest.(check int) "grew to 3" 3 r.recovered;
        rm path);
    case "open_append rejects a schema mismatch" (fun () ->
        let path = fresh "schema" in
        write_log path (mk_records 1);
        (match Persist.Record_log.open_append ~path ~schema:"other" () with
        | Error _ -> ()
        | Ok (t, _) ->
          Persist.Record_log.close t;
          Alcotest.fail "schema mismatch accepted");
        rm path);
    case "open_append rejects a git-commit mismatch" (fun () ->
        let path = fresh "commit" in
        let t =
          Persist.Record_log.create ~path ~commit:"aaaa1111" ~schema:"test" ()
        in
        Persist.Record_log.append t (J.Int 1);
        Persist.Record_log.close t;
        (match
           Persist.Record_log.open_append ~path ~expect_commit:"bbbb2222"
             ~schema:"test" ()
         with
        | Error _ -> ()
        | Ok (t, _) ->
          Persist.Record_log.close t;
          Alcotest.fail "log from a different commit accepted");
        (match
           Persist.Record_log.open_append ~path ~expect_commit:"aaaa1111"
             ~schema:"test" ()
         with
        | Ok (t, replayed) ->
          Persist.Record_log.close t;
          Alcotest.(check int) "same commit replays" 1 (List.length replayed)
        | Error msg -> Alcotest.failf "same-commit reopen failed: %s" msg);
        rm path);
    case "unknown commit disables the provenance check" (fun () ->
        let path = fresh "commit_unknown" in
        let t =
          Persist.Record_log.create ~path ~commit:"unknown" ~schema:"test" ()
        in
        Persist.Record_log.close t;
        (match
           Persist.Record_log.open_append ~path ~expect_commit:"bbbb2222"
             ~schema:"test" ()
         with
        | Ok (t, _) -> Persist.Record_log.close t
        | Error msg -> Alcotest.failf "unknown-commit log rejected: %s" msg);
        rm path);
    case "snapshot compaction rewrites atomically" (fun () ->
        let path = fresh "snap" in
        write_log path (mk_records 6);
        let keep = mk_records 2 in
        Persist.Record_log.write_snapshot ~path ~schema:"test" keep;
        let r = read_ok path in
        check_records "snapshot" keep r.records;
        Alcotest.(check bool) "no tmp left" false (Sys.file_exists (path ^ ".tmp"));
        rm path);
    case "a good CRC over bad JSON ends the prefix, and open_append cuts it" (fun () ->
        let path = fresh "notjson" in
        write_log path (mk_records 2);
        let good_end = file_size path in
        (* The bad frame passes the length and CRC checks; the valid
           frame after it must not be kept either. *)
        append_bytes path
          (raw_frame "{\"i\":" ^ raw_frame (J.to_string (J.Obj [ ("i", J.Int 9) ])));
        let r = read_ok path in
        check_records "prefix" (mk_records 2) r.records;
        Alcotest.(check int) "valid end" good_end r.valid_end;
        Alcotest.(check int) "both frames discarded" (file_size path - good_end)
          r.discarded_bytes;
        (match Persist.Record_log.open_append ~path ~schema:"test" () with
        | Error msg -> Alcotest.fail msg
        | Ok (t, replayed) ->
          Persist.Record_log.close t;
          check_records "replayed" (mk_records 2) replayed);
        Alcotest.(check int) "truncated at the bad frame" good_end (file_size path);
        rm path);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"records written = records replayed" ~count:50
         (QCheck.list_of_size (QCheck.Gen.int_bound 20) json_arb)
         (fun records ->
           (* Logs replay documents, not subtrees: wrap each random
              value so every record is a standalone document. *)
           let records = List.map (fun v -> J.Obj [ ("v", v) ]) records in
           let path = fresh "prop" in
           write_log path records;
           let r = read_ok path in
           let ok =
             List.length r.records = List.length records
             && List.for_all2 json_eq records r.records
             && r.discarded_bytes = 0
           in
           rm path;
           ok));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"one JSON pass per frame opens what two passes did" ~count:300
         (QCheck.make ~print:print_log_frames log_frames_gen)
         (fun (payloads, cut) ->
           let path = fresh "fused" in
           Persist.Record_log.close (Persist.Record_log.create ~path ~schema:"test" ());
           let data = String.concat "" (List.map raw_frame payloads) in
           append_bytes path data;
           truncate_by path (min cut (String.length data));
           let raw = In_channel.with_open_bin path In_channel.input_all in
           let oracle, valid_end = Persist_oracle.Record_log.two_pass_open raw in
           let kept = List.tl oracle in
           let r = read_ok path in
           let read_agrees =
             r.valid_end = valid_end
             && List.length r.records = List.length kept
             && List.for_all2
                  (fun record (pos, len, _) ->
                    json_eq record (Result.get_ok (J.of_substring raw pos len)))
                  r.records kept
           in
           match Persist.Record_log.open_spans ~path ~schema:"test" () with
           | Error msg -> QCheck.Test.fail_reportf "open_spans: %s" msg
           | Ok (t, bytes, members) ->
             Persist.Record_log.close t;
             let size = file_size path in
             rm path;
             read_agrees && String.equal bytes raw && size = valid_end
             && members = List.map (fun (_, _, m) -> Option.value m ~default:[]) kept));
  ]

(* ----- Faults ----- *)

let fault_tests =
  [ case "parse specs" (fun () ->
        (* Through $SRAM_OPT_FAULTS, as a process arms them: the number
           of appends that return before the armed fault fires, or all
           12 when a malformed spec is skipped. *)
        let appends_before_fault spec =
          Unix.putenv "SRAM_OPT_FAULTS" spec;
          Persist.Faults.disarm_all ();
          Persist.Faults.load_env ();
          let path = fresh "spec" in
          let t = Persist.Record_log.create ~path ~schema:"test" () in
          let n = ref 0 in
          (try List.iter (fun r -> Persist.Record_log.append t r; incr n) (mk_records 12)
           with Persist.Faults.Injected _ | Sys_error _ -> ());
          (try Persist.Record_log.close t with Persist.Faults.Injected _ | Sys_error _ -> ());
          Persist.Faults.disarm_all ();
          rm path;
          !n
        in
        Fun.protect
          ~finally:(fun () -> Unix.putenv "SRAM_OPT_FAULTS" "")
          (fun () ->
            Alcotest.(check int) "kill" 3 (appends_before_fault "kill:3");
            Alcotest.(check int) "short" 0 (appends_before_fault "short:0");
            Alcotest.(check int) "enospc" 7 (appends_before_fault "enospc:7");
            List.iter
              (fun s -> Alcotest.(check int) s 12 (appends_before_fault s))
              [ "kill"; "kill:x"; "fry:1"; "" ]));
    case "short write leaves a torn record that recovery discards" (fun () ->
        let path = fresh "short" in
        with_faults [ Persist.Faults.Short_write 2 ] (fun () ->
            let t = Persist.Record_log.create ~path ~schema:"test" () in
            let died =
              match List.iter (Persist.Record_log.append t) (mk_records 5) with
              | () -> false
              | exception Persist.Faults.Injected _ -> true
            in
            Persist.Record_log.close t;
            Alcotest.(check bool) "died at record 2" true died);
        let r = read_ok path in
        check_records "short prefix" (mk_records 2) r.records;
        Alcotest.(check bool) "torn bytes discarded" true (r.discarded_bytes > 0);
        rm path);
    case "kill fires at the boundary after record N, log stays valid" (fun () ->
        let path = fresh "kill" in
        with_faults [ Persist.Faults.Kill 1 ] (fun () ->
            let t = Persist.Record_log.create ~path ~schema:"test" () in
            let died =
              match List.iter (Persist.Record_log.append t) (mk_records 4) with
              | () -> false
              | exception Persist.Faults.Injected _ -> true
            in
            Persist.Record_log.close t;
            Alcotest.(check bool) "died after record 1" true died);
        let r = read_ok path in
        check_records "kill prefix" (mk_records 2) r.records;
        Alcotest.(check int) "clean boundary" 0 r.discarded_bytes;
        rm path);
    case "sticky death: appends after the crash also die" (fun () ->
        let path = fresh "sticky" in
        with_faults [ Persist.Faults.Kill 0 ] (fun () ->
            let t = Persist.Record_log.create ~path ~schema:"test" () in
            (try List.iter (Persist.Record_log.append t) (mk_records 2)
             with Persist.Faults.Injected _ -> ());
            (match Persist.Record_log.append t (J.Int 1) with
            | () -> Alcotest.fail "append succeeded after injected death"
            | exception Persist.Faults.Injected _ -> ());
            Persist.Record_log.close t);
        rm path);
    case "enospc truncates back to the record boundary and re-raises" (fun () ->
        let path = fresh "enospc" in
        with_faults [ Persist.Faults.Enospc 1 ] (fun () ->
            let t = Persist.Record_log.create ~path ~schema:"test" () in
            let records = mk_records 3 in
            let failures = ref 0 in
            List.iter
              (fun v ->
                try Persist.Record_log.append t v
                with Sys_error _ -> incr failures)
              records;
            Persist.Record_log.close t;
            Alcotest.(check int) "one ENOSPC" 1 !failures);
        (* Record 1 failed once; 0 and 2 landed, and the failed write
           left no partial frame behind. *)
        let r = read_ok path in
        Alcotest.(check int) "two records" 2 r.recovered;
        Alcotest.(check int) "no torn bytes" 0 r.discarded_bytes;
        rm path);
  ]

(* ----- Cache ----- *)

let cache_dir = Filename.concat tmp_root "cache"
let test_cache = Persist.Cache.create ~name:"test.roundtrip" ()

let with_cache_dir f =
  Persist.Cache.set_dir (Some cache_dir);
  Fun.protect ~finally:(fun () -> Persist.Cache.set_dir None) f

(* A fresh directory under the scratch root. *)
let fresh_dir name =
  let d = fresh name in
  Sys.mkdir d 0o755;
  d

let qcheck_cache = Persist.Cache.create ~name:"test.qcheck" ()

(* Keys made of the bytes a JSON string must escape or carry raw:
   quotes, backslashes, C0 controls, DEL and non-ASCII bytes, drawn
   from a small pool so that keys repeat. *)
let cache_adds_gen =
  let open QCheck.Gen in
  let byte = oneofl [ '"'; '\\'; '\000'; '\n'; '\031'; '\127'; '\xc3'; '\xa9'; '\xff'; 'k'; '/'; 'u' ] in
  let* pool = list_size (int_range 1 6) (string_size ~gen:byte (int_bound 6)) in
  list_size (int_bound 30) (pair (oneofl pool) json_gen)

(* Each distinct key's last value, in first-add order. *)
let last_values adds =
  List.fold_left
    (fun acc (k, v) -> if List.mem_assoc k acc then List.map (fun (k', v') -> if k' = k then (k, v) else (k', v')) acc else acc @ [ (k, v) ])
    [] adds

let finds_last_values cache adds =
  List.for_all
    (fun (k, v) ->
      match Persist.Cache.find cache k with
      | Some v' -> json_eq v v'
      | None -> false)
    (last_values adds)

let hvt_m2 = { Sram_edp.Framework.flavor = Finfet.Library.Hvt; method_ = Opt.Space.M2 }

(* The keys of a cache's log under [dir], in write order. *)
let cache_keys dir name =
  List.filter_map
    (fun r -> J.string_field r "k")
    (read_ok (Filename.concat dir (name ^ ".rlog"))).Persist.Record_log.records

(* [Opt.Space.default]'s axes as framework.optimize keys spelled them in
   full before they named the space by its digest: each V_SSC value in
   [%.17g], then n_r, N_pre and N_wr. *)
let default_space_spelling =
  "-0,-0.01,-0.02,-0.029999999999999999,-0.040000000000000001,"
  ^ "-0.050000000000000003,-0.059999999999999998,-0.070000000000000007,"
  ^ "-0.080000000000000002,-0.089999999999999997,-0.10000000000000001,"
  ^ "-0.11,-0.12,-0.13,-0.14000000000000001,-0.14999999999999999,-0.16,"
  ^ "-0.17000000000000001,-0.17999999999999999,-0.19,"
  ^ "-0.20000000000000001,-0.20999999999999999,-0.22,"
  ^ "-0.23000000000000001,-0.23999999999999999,|"
  ^ "2,4,8,16,32,64,128,256,512,1024,|"
  ^ "1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24,25,"
  ^ "26,27,28,29,30,31,32,33,34,35,36,37,38,39,40,41,42,43,44,45,46,47,"
  ^ "48,49,50,|"
  ^ "1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,"

let dc_solves () = Runtime.Telemetry.(value (counter "dc.solves"))

let cache_tests =
  [ case "inactive until set_dir" (fun () ->
        Persist.Cache.add test_cache "k" (J.Int 1);
        Alcotest.(check (option reject)) "find" None
          (Persist.Cache.find test_cache "k"));
    case "entries persist across a reopen" (fun () ->
        with_cache_dir (fun () ->
            Persist.Cache.add test_cache "answer" (J.Int 42));
        with_cache_dir (fun () ->
            match Persist.Cache.find test_cache "answer" with
            | Some (J.Int 42) -> ()
            | Some v -> Alcotest.failf "wrong value %s" (J.to_string v)
            | None -> Alcotest.fail "entry lost across reopen"));
    case "later add wins on replay" (fun () ->
        with_cache_dir (fun () ->
            Persist.Cache.add test_cache "dup" (J.Int 1);
            Persist.Cache.add test_cache "dup" (J.Int 2));
        with_cache_dir (fun () ->
            match Persist.Cache.find test_cache "dup" with
            | Some (J.Int 2) -> ()
            | _ -> Alcotest.fail "replay did not keep the last write"));
    case "ENOSPC degrades to memory-only, not a failure" (fun () ->
        with_cache_dir (fun () ->
            with_faults [ Persist.Faults.Enospc 0 ] (fun () ->
                Persist.Cache.add test_cache "lost" (J.Int 7));
            (* Still served from memory in this process... *)
            Alcotest.(check bool) "memory hit" true
              (Persist.Cache.find test_cache "lost" = Some (J.Int 7)));
        (* ...but the failed append never reached the log. *)
        with_cache_dir (fun () ->
            Alcotest.(check (option reject)) "not on disk" None
              (Persist.Cache.find test_cache "lost")));
    case "degraded cache stops touching the disk" (fun () ->
        with_cache_dir (fun () ->
            (* Two armed ENOSPC faults: the first degrades the cache;
               the second would fire if the next store still attempted
               a disk append. *)
            with_faults
              [ Persist.Faults.Enospc 0; Persist.Faults.Enospc 1 ]
              (fun () ->
                let before = Persist.Faults.injected_count () in
                Persist.Cache.add test_cache "d1" (J.Int 1);
                Persist.Cache.add test_cache "d2" (J.Int 2);
                Alcotest.(check int) "one failed write total" 1
                  (Persist.Faults.injected_count () - before));
            Alcotest.(check bool) "memory tier still serves" true
              (Persist.Cache.find test_cache "d2" = Some (J.Int 2))));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"add, reopen, find: the last add wins" ~count:100
         (QCheck.make
            ~print:(fun adds ->
              String.concat "; "
                (List.map (fun (k, v) -> Printf.sprintf "%S -> %s" k (J.to_string v)) adds))
            cache_adds_gen)
         (fun adds ->
           let dir = fresh_dir "qcache" in
           Persist.Cache.set_dir (Some dir);
           List.iter (fun (k, v) -> Persist.Cache.add qcheck_cache k v) adds;
           let live = finds_last_values qcheck_cache adds in
           Persist.Cache.set_dir (Some dir);
           let reopened = finds_last_values qcheck_cache adds in
           Persist.Cache.set_dir None;
           rm_rf dir;
           live && reopened));
    case "compaction keeps every key's last value" (fun () ->
        let dir = fresh_dir "compact" in
        let adds =
          List.init 70 (fun i ->
              (Printf.sprintf "key \"%d\"" (i mod 3), J.Obj [ ("i", J.Int i); ("x", J.Float (float_of_int i /. 7.0)) ]))
        in
        Persist.Cache.set_dir (Some dir);
        List.iter (fun (k, v) -> Persist.Cache.add qcheck_cache k v) adds;
        let log = Filename.concat dir "test.qcheck.rlog" in
        Alcotest.(check int) "70 records before" 70 (read_ok log).recovered;
        (* 70 records over 3 keys: reopening compacts. *)
        Persist.Cache.set_dir (Some dir);
        Alcotest.(check int) "3 records after" 3 (read_ok log).recovered;
        Alcotest.(check bool) "last values after compaction" true
          (finds_last_values qcheck_cache adds);
        Persist.Cache.set_dir (Some dir);
        Alcotest.(check bool) "last values from the compacted log" true
          (finds_last_values qcheck_cache adds);
        Persist.Cache.set_dir None;
        rm_rf dir);
    case "opening a 1,000-record log allocates < 96 words per record" (fun () ->
        (* Every allocation an open makes per record is small and lands
           in the minor heap, whose counter is exact; the file's bytes
           go to the major heap in one block.  Indexing costs ~71 words
           a record here; building a tree per record cost ~1,150. *)
        let dir = fresh_dir "alloc" in
        let value i =
          J.Obj
            (("geometry", J.Obj [ ("nr", J.Int (32 * i)); ("nc", J.Int 64) ])
            :: List.init 16 (fun k -> (Printf.sprintf "m%d" k, J.Float (float_of_int (i + k) /. 3.0))))
        in
        Persist.Cache.set_dir (Some dir);
        for i = 1 to 1000 do
          Persist.Cache.add qcheck_cache (Printf.sprintf "6T-HVT-M2|cap=%d|EDP" i) (value i)
        done;
        Persist.Cache.set_dir None;
        let before = Gc.minor_words () in
        Persist.Cache.set_dir (Some dir);
        let per_record = (Gc.minor_words () -. before) /. 1000.0 in
        let found = Persist.Cache.find qcheck_cache "6T-HVT-M2|cap=500|EDP" in
        Persist.Cache.set_dir None;
        rm_rf dir;
        Alcotest.(check bool) "value found" true (Option.fold ~none:false ~some:(json_eq (value 500)) found);
        Alcotest.(check bool) (Printf.sprintf "%.1f words per record" per_record) true
          (per_record < 96.0));
    case "framework.optimize and yield.solve keys are spelled as on disk" (fun () ->
        (* Every --cache-dir log is keyed by these strings: a key whose
           spelling drifts orphans every log written before it.  A
           framework.optimize key names its space by the MD5 digest of
           the grid spelled out. *)
        let dir = fresh_dir "keys" in
        Runtime.Memo.reset_all ();
        Persist.Cache.set_dir (Some dir);
        ignore (Sram_edp.Framework.optimize ~capacity_bits:(1024 * 8) ~config:hvt_m2 ());
        Persist.Cache.set_dir None;
        Alcotest.(check string) "the digest of the space spelled out"
          "38853f61d9d43276e1a4063b917e33ff"
          (Digest.to_hex (Digest.string default_space_spelling));
        Alcotest.(check (list string)) "framework.optimize"
          [ "6T-HVT-M2|cap=8192|EDP|paper|w=64|space=38853f61d9d43276e1a4063b917e33ff" ]
          (cache_keys dir "framework.optimize");
        Alcotest.(check (list string)) "yield.solve" [ "HVT|0.1575|81|-|-" ]
          (cache_keys dir "yield.solve");
        rm_rf dir);
    case "a directory or log that cannot be opened leaves caches inactive"
      (fun () ->
        (* Neither a missing parent nor a log path that cannot be
           created (here a symlink into a missing directory) raises:
           the caches answer nothing from disk and store nothing. *)
        let dir = fresh_dir "unusable" in
        let check_inactive what =
          Persist.Cache.add test_cache "k" (J.Int 1);
          Alcotest.(check (option reject)) what None (Persist.Cache.find test_cache "k");
          Persist.Cache.set_dir None
        in
        Persist.Cache.set_dir (Some (Filename.concat dir "missing/cache"));
        check_inactive "missing parent";
        let link = Filename.concat dir "test.roundtrip.rlog" in
        Unix.symlink (Filename.concat dir "missing/log") link;
        Persist.Cache.set_dir (Some dir);
        check_inactive "log that cannot be created";
        Sys.remove link;
        rm_rf dir);
    case "spaces one V_SSC bit apart get distinct framework.optimize keys" (fun () ->
        (* [0.0] against [-0.0] (the sign bit), and -0.05 against its
           neighbouring double (the last mantissa bit). *)
        let dir = fresh_dir "vssc_bits" in
        Runtime.Memo.reset_all ();
        Persist.Cache.set_dir (Some dir);
        List.iter
          (fun vssc ->
            ignore
              (Sram_edp.Framework.optimize
                 ~space:{ Opt.Space.reduced with Opt.Space.vssc_values = vssc }
                 ~capacity_bits:(1024 * 8) ~config:hvt_m2 ()))
          [ [| 0.0; -0.05 |]; [| -0.0; -0.05 |]; [| 0.0; Float.succ (-0.05) |] ];
        Persist.Cache.set_dir None;
        let keys = cache_keys dir "framework.optimize" in
        rm_rf dir;
        Alcotest.(check int) "three records" 3 (List.length keys);
        Alcotest.(check int) "three keys" 3 (List.length (List.sort_uniq compare keys)));
    case "a log keyed in the old spelling opens cleanly and just misses" (fun () ->
        (* The old key holds another capacity's answer: a hit on it
           would hand that answer back. *)
        let dir = fresh_dir "old_keys" in
        let optimize capacity_bits =
          Sram_edp.Framework.optimize ~capacity_bits ~config:hvt_m2 ()
        in
        let checksum (o : Sram_edp.Framework.optimized) =
          Opt.Exhaustive.checksum [ o.Sram_edp.Framework.result ]
        in
        let right = optimize (1024 * 8) and other = optimize (2048 * 8) in
        let old_key = "6T-HVT-M2|cap=8192|EDP|paper|w=64|" ^ default_space_spelling in
        let t =
          Persist.Record_log.create
            ~path:(Filename.concat dir "framework.optimize.rlog")
            ~schema:"cache/framework.optimize" ()
        in
        Persist.Record_log.append t
          (J.Obj
             [ ("k", J.String old_key);
               ("v", Opt.Exhaustive.result_to_json other.Sram_edp.Framework.result) ]);
        Persist.Record_log.close t;
        Runtime.Memo.reset_all ();
        Persist.Cache.set_dir (Some dir);
        let again = optimize (1024 * 8) in
        Persist.Cache.set_dir None;
        let keys = cache_keys dir "framework.optimize" in
        rm_rf dir;
        Alcotest.(check string) "the answer is computed" (checksum right) (checksum again);
        Alcotest.(check (list string)) "the old record is kept and the new key appended"
          [ old_key;
            "6T-HVT-M2|cap=8192|EDP|paper|w=64|space=38853f61d9d43276e1a4063b917e33ff" ]
          keys);
    case "write levels replay from disk bit for bit, with no DC solve" (fun () ->
        let dir = fresh_dir "write_levels" in
        let levels per =
          Array.map
            (fun vwl -> Array_model.Periphery.write_delay per ~vwl)
            Array_model.Periphery.vwl_grid
        in
        let shared () = Array_model.Periphery.shared ~cell_flavor:Finfet.Library.Hvt in
        Runtime.Memo.reset_all ();
        Persist.Cache.set_dir (Some dir);
        ignore (levels (shared ()));
        Persist.Cache.set_dir None;
        Runtime.Memo.reset_all ();
        Persist.Cache.set_dir (Some dir);
        let per = shared () in
        let before = dc_solves () in
        let replayed = levels per in
        let solved = dc_solves () - before in
        Persist.Cache.set_dir None;
        rm_rf dir;
        let fresh =
          levels
            (Array_model.Periphery.characterize
               ~lib:(Lazy.force Finfet.Library.default)
               ~cell_flavor:Finfet.Library.Hvt ())
        in
        Alcotest.(check int) "DC solves" 0 solved;
        Array.iteri
          (fun i d ->
            Alcotest.(check int64)
              (Printf.sprintf "level %g" Array_model.Periphery.vwl_grid.(i))
              (Int64.bits_of_float fresh.(i)) (Int64.bits_of_float d))
          replayed);
    slow_case "a Table 4 sweep from a warm directory gives 67fd83cd67998ac0" (fun () ->
        (* Warm with the pins and write levels alone (the results' log
           removed), every search runs and only each flavor's leakage
           operating point is solved; warm with the results too, the
           sweep is replayed. *)
        let dir = fresh_dir "table4" in
        let sweep () =
          Runtime.Memo.reset_all ();
          Persist.Cache.set_dir (Some dir);
          let before = dc_solves () in
          let results =
            Sram_edp.Framework.sweep_capacities
              ~capacities:Sram_edp.Framework.paper_capacities
              ~configs:Sram_edp.Framework.all_configs ()
          in
          let solved = dc_solves () - before in
          Persist.Cache.set_dir None;
          ( Opt.Exhaustive.checksum
              (List.map (fun (o : Sram_edp.Framework.optimized) -> o.result) results),
            solved )
        in
        let cold, _ = sweep () in
        Sys.remove (Filename.concat dir "framework.optimize.rlog");
        let warm, warm_solves = sweep () in
        let replayed, replay_solves = sweep () in
        rm_rf dir;
        List.iter
          (fun (what, sum) -> Alcotest.(check string) what "67fd83cd67998ac0" sum)
          [ ("cold", cold); ("warm pins and write levels", warm); ("replayed", replayed) ];
        Alcotest.(check int) "DC solves, warm pins and write levels" 2 warm_solves;
        Alcotest.(check int) "DC solves, replayed" 0 replay_solves);
  ]

(* ----- Checkpoint / resume bit-identity ----- *)

let env_hvt = Array_model.Array_eval.make_env ~cell_flavor:Finfet.Library.Hvt ()
let small_cap = 1024 * 8

let sweep () =
  Opt.Exhaustive.search ~space:Opt.Space.reduced ~env:env_hvt
    ~capacity_bits:small_cap ~method_:Opt.Space.M2 ()

let base_checksum =
  lazy (with_jobs 1 (fun () -> Opt.Exhaustive.checksum [ sweep () ]))

let open_journal ~path ~resume =
  match Persist.Checkpoint.create ~path ~resume ~checkpoint_every:4 () with
  | Ok j -> j
  | Error msg -> Alcotest.failf "checkpoint %s: %s" path msg

(* The acceptance criterion: kill a journaled sweep at an injected
   record boundary, reopen the journal with resume, and the finished
   sweep's winner checksum is bit-identical to an uninterrupted run —
   at every job count. *)
let kill_resume_case jobs =
  slow_case (Printf.sprintf "killed sweep resumes bit-identically (%d jobs)" jobs)
    (fun () ->
      with_jobs jobs @@ fun () ->
      let path = fresh (Printf.sprintf "journal_%dj" jobs) in
      (* Uninterrupted journaled run first: same checksum as plain. *)
      let j = open_journal ~path ~resume:false in
      let full = Opt.Exhaustive.checksum [ with_journal j sweep ] in
      Persist.Checkpoint.close j;
      Alcotest.(check string) "journaled = plain" (Lazy.force base_checksum) full;
      (* Now the crash: fresh journal, die after chunk record 3. *)
      let j = open_journal ~path ~resume:false in
      let died =
        with_faults [ Persist.Faults.Kill 3 ] (fun () ->
            match with_journal j sweep with
            | _ -> false
            | exception Persist.Faults.Injected _ -> true)
      in
      Persist.Checkpoint.close j;
      Alcotest.(check bool) "sweep killed by injected fault" true died;
      (* Resume: completed chunks replay, the rest recompute. *)
      let j = open_journal ~path ~resume:true in
      Alcotest.(check bool) "chunks replayed" true (Persist.Checkpoint.replayed j > 0);
      let resumed = Opt.Exhaustive.checksum [ with_journal j sweep ] in
      Persist.Checkpoint.close j;
      rm path;
      Alcotest.(check string) "resumed = uninterrupted" (Lazy.force base_checksum)
        resumed)

(* The chunk is the sweep's block: at any chunk size and job count a
   journaled search picks the unjournaled winner bit for bit and
   decides the same points, and a run resumed from its journal replays
   every chunk and scans nothing. *)
let prop_journaled_search_is_plain =
  let gen =
    QCheck.Gen.(
      quad (oneofl [ 1; 5; 64; 100 ]) (oneofl [ 1; 2 ]) (int_range 0 3) bool)
  in
  let print (every, jobs, cap_exp, m2) =
    Printf.sprintf "every=%d jobs=%d %dB %s" every jobs (128 lsl cap_exp)
      (if m2 then "M2" else "M1")
  in
  QCheck.Test.make ~count:12
    ~name:"journaled search = plain search; resume replays every chunk"
    (QCheck.make ~print gen)
    (fun (every, jobs, cap_exp, m2) ->
      let capacity_bits = (128 * 8) lsl cap_exp in
      let method_ = if m2 then Opt.Space.M2 else Opt.Space.M1 in
      with_jobs jobs @@ fun () ->
      let search () =
        Opt.Exhaustive.search ~space:Opt.Space.reduced ~env:env_hvt
          ~capacity_bits ~method_ ()
      in
      let path = fresh "chunked" in
      let open_journal resume =
        match Persist.Checkpoint.create ~path ~resume ~checkpoint_every:every () with
        | Ok j -> j
        | Error msg -> Alcotest.failf "checkpoint %s: %s" path msg
      in
      let plain = search () in
      let j = open_journal false in
      let journaled = with_journal j search in
      Persist.Checkpoint.close j;
      let j = open_journal true in
      let replayed = Persist.Checkpoint.replayed j in
      let resumed = with_journal j search in
      Persist.Checkpoint.close j;
      rm path;
      let geometries =
        List.length (Opt.Space.candidate_geometries Opt.Space.reduced ~capacity_bits)
      in
      let same (r : Opt.Exhaustive.result) =
        Opt.Exhaustive.checksum [ r ] = Opt.Exhaustive.checksum [ plain ]
        && r.considered = plain.considered
      in
      same journaled && same resumed
      && replayed = (geometries + every - 1) / every
      && resumed.evaluated = 0)

let checkpoint_tests =
  [ case "result codec round-trips the winner bit-exactly" (fun () ->
        let r = with_jobs 1 sweep in
        match Opt.Exhaustive.result_of_json (Opt.Exhaustive.result_to_json r) with
        | None -> Alcotest.fail "result codec round-trip failed"
        | Some r' ->
          Alcotest.(check string) "checksum preserved"
            (Opt.Exhaustive.checksum [ r ])
            (Opt.Exhaustive.checksum [ r' ]);
          Alcotest.(check bool) "winner floats bit-identical" true
            (Int64.bits_of_float r.best.score = Int64.bits_of_float r'.best.score));
    case "stale journal entries are ignored, not folded in" (fun () ->
        (* A journal recorded under a different task signature must not
           contaminate the sweep: recovery matches nothing and the full
           result is recomputed. *)
        let path = fresh "stale" in
        let j = open_journal ~path ~resume:false in
        Persist.Checkpoint.record j ~task:"search|bogus|signature" ~chunk:0
          (J.Obj [ ("best", J.Null); ("lo", J.Int 0); ("hi", J.Int 3) ]);
        Persist.Checkpoint.close j;
        let j = open_journal ~path ~resume:true in
        Alcotest.(check int) "foreign chunk replayed" 1 (Persist.Checkpoint.replayed j);
        with_jobs 2 @@ fun () ->
        let cs = Opt.Exhaustive.checksum [ with_journal j sweep ] in
        Persist.Checkpoint.close j;
        rm path;
        Alcotest.(check string) "winner unaffected" (Lazy.force base_checksum) cs);
    case "checkpoint write failure degrades once, results survive" (fun () ->
        let path = fresh "degrade" in
        let j = open_journal ~path ~resume:false in
        with_faults
          [ Persist.Faults.Enospc 0; Persist.Faults.Enospc 1 ]
          (fun () ->
            let before = Persist.Faults.injected_count () in
            Persist.Checkpoint.record j ~task:"t" ~chunk:0 (J.Int 10);
            Persist.Checkpoint.record j ~task:"t" ~chunk:1 (J.Int 11);
            Alcotest.(check int) "one failed write total" 1
              (Persist.Faults.injected_count () - before));
        (* The in-memory journal still answers for both chunks. *)
        Alcotest.(check bool) "chunk 0 kept" true
          (Persist.Checkpoint.completed j ~task:"t" ~chunk:0 = Some (J.Int 10));
        Alcotest.(check bool) "chunk 1 kept" true
          (Persist.Checkpoint.completed j ~task:"t" ~chunk:1 = Some (J.Int 11));
        Persist.Checkpoint.close j;
        rm path);
    case "resume recomputes chunks whose stored best no longer decodes"
      (fun () ->
        (* Models a journal written before e.g. Geometry invariants were
           tightened: the record is present and matches the task, but
           its stored best fails to decode.  The chunk must be
           recomputed, not replayed as empty. *)
        let mangle_best = function
          | J.Obj kv ->
            J.Obj
              (List.map
                 (fun (k, v) ->
                   match (k, v) with
                   | "data", J.Obj dkv ->
                     ( k,
                       J.Obj
                         (List.map
                            (fun (dk, dv) ->
                              if dk = "best" then
                                (dk, J.Obj [ ("geometry", J.Null) ])
                              else (dk, dv))
                            dkv) )
                   | _ -> (k, v))
                 kv)
          | j -> j
        in
        let path = fresh "undecodable" in
        with_jobs 1 @@ fun () ->
        let j = open_journal ~path ~resume:false in
        ignore (with_journal j sweep);
        Persist.Checkpoint.close j;
        (match Persist.Record_log.read ~path with
        | Error e -> Alcotest.fail e
        | Ok r ->
          Persist.Record_log.write_snapshot ~path ~schema:"sweep-journal"
            (List.map mangle_best r.records));
        let j = open_journal ~path ~resume:true in
        Alcotest.(check bool) "mangled chunks replayed" true
          (Persist.Checkpoint.replayed j > 0);
        let cs = Opt.Exhaustive.checksum [ with_journal j sweep ] in
        Persist.Checkpoint.close j;
        rm path;
        Alcotest.(check string) "winner recomputed identically"
          (Lazy.force base_checksum) cs);
    kill_resume_case 1;
    kill_resume_case 2;
    kill_resume_case 4;
    QCheck_alcotest.to_alcotest prop_journaled_search_is_plain;
    case "journaled search task signature is spelled as on disk" (fun () ->
        (* A resumed journal matches chunks by this string: a signature
           that drifts orphans every journal written before it.  The
           search is the CLI's 1KB HVT M2 optimize under --checkpoint. *)
        let path = fresh "task_signature" in
        let j =
          match Persist.Checkpoint.create ~path () with
          | Ok j -> j
          | Error msg -> Alcotest.failf "checkpoint %s: %s" path msg
        in
        with_jobs 1 @@ fun () ->
        ignore
          (with_journal j (fun () ->
               Opt.Exhaustive.search ~env:env_hvt ~capacity_bits:small_cap
                 ~method_:Opt.Space.M2 ()));
        Persist.Checkpoint.close j;
        let tasks =
          List.sort_uniq compare
            (List.filter_map (fun r -> J.string_field r "task") (read_ok path).records)
        in
        rm path;
        Alcotest.(check (list string)) "task"
          [ "search|EDP|staged|HVT|M2|paper|cap=8192|bd5406c36f6a8cdd" ] tasks);
    case "a chunk record holds its best alone; wider records still replay"
      (fun () ->
        (* Replay and the incumbent seeding read only [best].  A journal
           whose chunks also carry the incumbent and the chunk's index
           range, as older builds wrote them, replays every chunk. *)
        let path = fresh "best_alone" in
        with_jobs 1 @@ fun () ->
        let j = open_journal ~path ~resume:false in
        ignore (with_journal j sweep);
        Persist.Checkpoint.close j;
        let records = (read_ok path).records in
        List.iter
          (fun r ->
            match J.member "data" r with
            | Some (J.Obj [ ("best", _) ]) -> ()
            | _ -> Alcotest.failf "chunk data is not {best}: %s" (J.to_string r))
          records;
        let widen = function
          | J.Obj kv ->
            J.Obj
              (List.map
                 (function
                   | "data", J.Obj d ->
                     ( "data",
                       J.Obj
                         (d @ [ ("incumbent", J.Float 1e-27); ("lo", J.Int 0);
                                ("hi", J.Int 3) ]) )
                   | field -> field)
                 kv)
          | r -> r
        in
        Persist.Record_log.write_snapshot ~path ~schema:"sweep-journal"
          (List.map widen records);
        let j = open_journal ~path ~resume:true in
        let replayed = Persist.Checkpoint.replayed j in
        let r = with_journal j sweep in
        Persist.Checkpoint.close j;
        rm path;
        Alcotest.(check int) "every chunk replayed" (List.length records) replayed;
        Alcotest.(check int) "nothing scanned" 0 r.Opt.Exhaustive.evaluated;
        Alcotest.(check string) "winner" (Lazy.force base_checksum)
          (Opt.Exhaustive.checksum [ r ]));
    case "a journal that cannot be created or read is an Error" (fun () ->
        let dir = fresh_dir "journal_paths" in
        (* [Record_log.create] makes one missing level, not two. *)
        let missing = Filename.concat dir "missing/a/j.rlog" in
        List.iter
          (fun (what, path, resume) ->
            match Persist.Checkpoint.create ~path ~resume () with
            | Error _ -> ()
            | Ok j ->
              Persist.Checkpoint.close j;
              Alcotest.failf "%s: opened" what)
          [ ("missing parent", missing, false);
            ("missing parent, resumed", missing, true);
            ("a directory", dir, false);
            ("a directory, resumed", dir, true) ];
        rm_rf dir);
  ]

let () =
  Alcotest.run "persist"
    [ ("json", json_tests);
      ("crc32", crc_tests);
      ("record_log", record_log_tests);
      ("faults", fault_tests);
      ("cache", cache_tests);
      ("checkpoint", checkpoint_tests);
    ]
