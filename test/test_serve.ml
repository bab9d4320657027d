(* Tests for lib/serve: wire-frame robustness (truncated / oversized /
   corrupted frames are typed errors, never crashes), QCheck round-trips
   of the request/response codecs (bit-exact through every float), and
   end-to-end daemon behaviour against a real forked server — garbage
   frames and clients killed mid-request leave the server answering,
   deadlines cancel cleanly, and a repeated query hits the warm memo
   with a checksum identical to the in-process one-shot path. *)

open Testutil
module F = Serve.Frame
module P = Serve.Protocol
module J = Persist.Json

(* ----- scratch ----- *)

let tmp_root =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "sram_opt_test_serve_%d" (Unix.getpid ()))
  in
  (if not (Sys.file_exists d) then Sys.mkdir d 0o755);
  d

let fresh_sock =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat tmp_root (Printf.sprintf "s%d.sock" !n)

(* ----- frames ----- *)

let with_pipe f =
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      try Unix.close w with Unix.Unix_error _ -> ())
    (fun () -> f r w)

let check_read = Alcotest.(check (result string string))

let read_str fd = Result.map_error F.error_to_string (F.read fd)

(* A byte stream of well-formed frames, frames with a wrong checksum and
   loose junk, cut into chunks at random offsets, for a decoder whose
   length limit some of the frames exceed. *)
let frame_stream_gen =
  let open QCheck.Gen in
  let frame ~crc_ok payload =
    let b = Bytes.create 8 in
    let crc = Persist.Crc32.string payload in
    Bytes.set_int32_le b 0 (Int32.of_int (String.length payload));
    Bytes.set_int32_le b 4 (Int32.of_int (if crc_ok then crc else crc lxor 1));
    Bytes.to_string b ^ payload
  in
  let payload = string_size ~gen:char (int_bound 40) in
  let piece =
    frequency
      [ (6, map (frame ~crc_ok:true) payload);
        (1, map (frame ~crc_ok:false) payload);
        (1, string_size ~gen:char (int_bound 12)) ]
  in
  let* stream = map (String.concat "") (list_size (int_bound 6) piece) in
  let* cuts = list_size (int_bound 8) (int_bound (String.length stream)) in
  let* max_len = oneofl [ 16; 64; F.max_frame_default ] in
  return (stream, List.sort_uniq compare cuts, max_len)

(* Every frame popped after each chunk, and the sticky error if one
   came up. *)
let decode_chunks ~max_len chunks =
  let d = F.decoder ~max_len () in
  let frames = ref [] and err = ref None in
  List.iter
    (fun c ->
      F.feed d (Bytes.of_string c) (String.length c);
      let rec pop () =
        match F.next d with
        | Ok (Some p) -> frames := p :: !frames; pop ()
        | Ok None -> ()
        | Error e -> err := Some e
      in
      pop ())
    chunks;
  (List.rev !frames, !err)

let frame_tests =
  [ case "write/read round-trips payloads" (fun () ->
        with_pipe (fun r w ->
            (* Payloads must fit the pipe buffer: reader and writer are
               the same process, so an over-full write would deadlock. *)
            List.iter
              (fun p ->
                F.write w p;
                check_read "payload" (Ok p) (read_str r))
              [ ""; "x"; String.make 30_000 '\xff'; "{\"id\":1}" ]));
    case "clean close between frames is Eof" (fun () ->
        with_pipe (fun r w ->
            Unix.close w;
            check_read "eof" (Error "connection closed") (read_str r)));
    case "close mid-frame is Truncated, not a hang or crash" (fun () ->
        with_pipe (fun r w ->
            (* Header promises 100 bytes; send 3 and die. *)
            let b = Bytes.create 8 in
            Bytes.set_int32_le b 0 100l;
            Bytes.set_int32_le b 4 0l;
            ignore (Unix.write w b 0 8);
            ignore (Unix.write_substring w "abc" 0 3);
            Unix.close w;
            check_read "truncated" (Error "connection closed mid-frame")
              (read_str r)));
    case "length prefix beyond max_len is Oversized, no allocation"
      (fun () ->
        with_pipe (fun r w ->
            let b = Bytes.create 8 in
            Bytes.set_int32_le b 0 0x7fffff00l;
            Bytes.set_int32_le b 4 0l;
            ignore (Unix.write w b 0 8);
            match F.read r with
            | Error (F.Oversized n) ->
              Alcotest.(check int) "declared length" 0x7fffff00 n
            | other ->
              Alcotest.failf "expected Oversized, got %s"
                (match other with
                | Ok _ -> "a frame"
                | Error e -> F.error_to_string e)));
    case "corrupted payload is Crc_mismatch" (fun () ->
        with_pipe (fun r w ->
            let payload = "hello, server" in
            let crc = Persist.Crc32.string payload in
            let b = Bytes.create 8 in
            Bytes.set_int32_le b 0 (Int32.of_int (String.length payload));
            Bytes.set_int32_le b 4 (Int32.of_int (crc lxor 0xdead));
            ignore (Unix.write w b 0 8);
            ignore
              (Unix.write_substring w payload 0 (String.length payload));
            check_read "crc" (Error "frame checksum mismatch") (read_str r)));
    case "decoder pops frames fed one byte at a time" (fun () ->
        let d = F.decoder () in
        (* Build two frames in a string via a pipe, then drip-feed. *)
        let wire =
          with_pipe (fun r w ->
              F.write w "first";
              F.write w "second";
              Unix.close w;
              let b = Bytes.create 4096 in
              let n = ref 0 in
              let k = ref (Unix.read r b !n (4096 - !n)) in
              while !k > 0 do
                n := !n + !k;
                k := Unix.read r b !n (4096 - !n)
              done;
              Bytes.sub_string b 0 !n)
        in
        let got = ref [] in
        String.iter
          (fun c ->
            F.feed d (Bytes.make 1 c) 1;
            match F.next d with
            | Ok (Some p) -> got := p :: !got
            | Ok None -> ()
            | Error e -> Alcotest.failf "decoder: %s" (F.error_to_string e))
          wire;
        Alcotest.(check (list string))
          "frames" [ "first"; "second" ] (List.rev !got);
        Alcotest.(check int) "nothing buffered" 0 (F.buffered d));
    case "decoder error is sticky" (fun () ->
        let d = F.decoder ~max_len:16 () in
        let b = Bytes.create 8 in
        Bytes.set_int32_le b 0 1000l;
        Bytes.set_int32_le b 4 0l;
        F.feed d b 8;
        (match F.next d with
        | Error (F.Oversized _) -> ()
        | _ -> Alcotest.fail "expected Oversized");
        match F.next d with
        | Error (F.Oversized _) -> ()
        | _ -> Alcotest.fail "error must persist");
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"any chunking decodes like a single feed, never raises"
         ~count:2000
         (QCheck.make ~print:(fun (s, cuts, max_len) ->
              Printf.sprintf "%S cut at [%s], max_len %d" s
                (String.concat "; " (List.map string_of_int cuts)) max_len)
            frame_stream_gen)
         (fun (stream, cuts, max_len) ->
           let rec chunks lo = function
             | [] -> [ String.sub stream lo (String.length stream - lo) ]
             | cut :: rest -> String.sub stream lo (cut - lo) :: chunks cut rest
           in
           match
             (decode_chunks ~max_len [ stream ], decode_chunks ~max_len (chunks 0 cuts))
           with
           | whole, split -> whole = split
           | exception e ->
             QCheck.Test.fail_reportf "decoder raised %s" (Printexc.to_string e)));
    case "a 4 MiB frame in 64 KiB pieces allocates < 6x its size" (fun () ->
        (* The server pops after every read that drains, so a frame
           copied whole on each [next] costs its size once per piece. *)
        let payload = String.init (F.max_frame_default - 8) (fun i -> Char.chr (i land 0xff)) in
        let wire = Bytes.create F.max_frame_default in
        Bytes.set_int32_le wire 0 (Int32.of_int (String.length payload));
        Bytes.set_int32_le wire 4 (Int32.of_int (Persist.Crc32.string payload));
        Bytes.blit_string payload 0 wire 8 (String.length payload);
        let piece = Bytes.create 65536 in
        let d = F.decoder () in
        let got = ref None in
        let a0 = Gc.allocated_bytes () in
        let off = ref 0 in
        while !off < Bytes.length wire do
          let n = min (Bytes.length piece) (Bytes.length wire - !off) in
          Bytes.blit wire !off piece 0 n;
          F.feed d piece n;
          off := !off + n;
          match F.next d with
          | Ok (Some p) -> got := Some p
          | Ok None -> ()
          | Error e -> Alcotest.failf "decoder: %s" (F.error_to_string e)
        done;
        let ratio = (Gc.allocated_bytes () -. a0) /. float_of_int (Bytes.length wire) in
        Alcotest.(check bool) "payload decoded" true (!got = Some payload);
        if ratio >= 6.0 then
          Alcotest.failf "decoding allocated %.1fx the frame's size (want < 6x)" ratio)
  ]

(* ----- protocol codecs (QCheck) ----- *)

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2)

(* Queries [Opt.Space.check] accepts, by construction: strictly
   monotone non-empty axes inside their domains, and a capacity that
   holds the smallest n_r while its widest array, M / n_r columns of
   w-bit words, needs at most 14 column address bits. *)
let query_gen =
  let open QCheck.Gen in
  let grid ~order g =
    list_size (int_range 1 8) g >|= List.sort_uniq order >|= Array.of_list
  in
  let opt g = oneof [ return None; map Option.some g ] in
  let* vssc =
    opt (grid ~order:(fun a b -> compare b a) (float_range (-0.24) 0.0))
  in
  let* nr = opt (grid ~order:compare (map (fun e -> 1 lsl e) (int_range 1 10))) in
  let* n_pre = opt (grid ~order:compare (int_range 1 64)) in
  let* n_wr = opt (grid ~order:compare (int_range 1 64)) in
  let* w = map (fun e -> 1 lsl e) (int_range 0 9) in
  let lo = log2 (match nr with Some a -> a.(0) | None -> 2) in
  let* capacity_bits =
    map (fun e -> 1 lsl e) (int_range lo (min 24 (lo + log2 w + 14)))
  in
  let* flavor = oneofl [ Finfet.Library.Lvt; Finfet.Library.Hvt ] in
  let* method_ = oneofl [ Opt.Space.M1; Opt.Space.M2 ] in
  let* strategy =
    oneofl
      [ Opt.Strategy.Exhaustive; Opt.Strategy.Local_search;
        Opt.Strategy.Anneal; Opt.Strategy.Nsga2; Opt.Strategy.Surrogate ]
  in
  let* rng_seed = int_range 0 10_000 in
  let* objective =
    oneofl
      [ Opt.Objective.Energy_delay_product;
        Opt.Objective.Energy_delay_squared; Opt.Objective.Energy_only;
        Opt.Objective.Delay_only ]
  in
  let* accounting =
    oneofl [ Array_model.Array_eval.Paper_strict; Array_model.Array_eval.Physical ]
  in
  return
    { P.capacity_bits; flavor; method_; strategy; rng_seed; objective;
      accounting; w; space = { P.vssc; nr; n_pre; n_wr } }

let trace_id_gen =
  let open QCheck.Gen in
  oneof
    [ return None;
      map Option.some (string_size ~gen:printable (int_bound 24)) ]

let request_gen =
  let open QCheck.Gen in
  let* id = int_range 0 max_int in
  let* deadline_ms = oneof [ return None; map Option.some (float_range 0.0 1e6) ] in
  let* trace_id = trace_id_gen in
  let* endpoint =
    oneof
      [ return P.Ping; return P.Stats; return P.Metrics; return P.Shutdown;
        map (fun q -> P.Optimize q) query_gen;
        map (fun q -> P.Explain q) query_gen ]
  in
  return { P.id; deadline_ms; trace_id; endpoint }

let response_gen =
  let open QCheck.Gen in
  let* rid = int_range 0 max_int in
  let* rtrace_id = trace_id_gen in
  let* body =
    oneof
      [ map (fun s -> Ok (J.String s)) (string_size ~gen:printable (int_bound 16));
        map (fun f -> Ok (J.Obj [ ("x", J.Float f) ])) (float_range (-1e12) 1e12);
        (let* code =
           oneofl
             [ P.Bad_request; P.Busy; P.Deadline; P.Shutting_down; P.Internal ]
         in
         let* msg = string_size ~gen:printable (int_bound 24) in
         return (Error (code, msg)))
      ]
  in
  return { P.rid; rtrace_id; body }

(* Structural equality through the JSON tree, floats compared by bits. *)
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

(* Query fields as a client might send them: any capacity and w, and
   axes that are absent, hostile (NaN, +-inf, huge, empty, duplicated,
   unsorted, 300 long) or contiguous runs of the default grid, so a
   fair share of queries passes the check. *)
let wild_query_gen =
  let open QCheck.Gen in
  let pow2 lo hi = map (fun e -> 1 lsl e) (int_range lo hi) in
  let run_of values =
    let n = Array.length values in
    let* i = int_bound (n - 1) in
    let* len = int_range 1 (n - i) in
    return (Array.sub values i len)
  in
  let hostile g =
    let* len = frequency [ (9, int_range 0 6); (1, return 300) ] in
    array_size (return len) g
  in
  let axis name default g =
    frequency
      [ (2, return []);
        (2, map (fun a -> [ (name, a) ]) (run_of default));
        (1, map (fun a -> [ (name, a) ]) (hostile g)) ]
  in
  let d = Opt.Space.default in
  let floats = Array.map (fun v -> J.Float v) in
  let ints = Array.map (fun v -> J.Int v) in
  let hostile_int =
    oneof [ oneofl [ 0; -1; 3; max_int; min_int; 1 lsl 40 ]; pow2 0 16; int_range (-5) 100 ]
  in
  let* capacity_bits =
    frequency [ (3, pow2 10 13); (1, pow2 0 30); (1, int); (1, int_range (-10) 10) ]
  in
  let* w = frequency [ (3, return 64); (2, pow2 0 12); (1, hostile_int) ] in
  let* vssc =
    axis "vssc_v" (floats d.Opt.Space.vssc_values)
      (map (fun v -> J.Float v)
         (oneof
            [ oneofl [ Float.nan; Float.infinity; Float.neg_infinity; 1e308; -1e308; 5.0; -3.0; -0.0 ];
              oneofa d.Opt.Space.vssc_values; float_range (-1.0) 1.0 ]))
  in
  let* nr = axis "nr" (ints d.Opt.Space.nr_values) (map (fun v -> J.Int v) hostile_int) in
  let* n_pre = axis "n_pre" (ints d.Opt.Space.n_pre_values) (map (fun v -> J.Int v) hostile_int) in
  let* n_wr = axis "n_wr" (ints d.Opt.Space.n_wr_values) (map (fun v -> J.Int v) hostile_int) in
  let space =
    match vssc @ nr @ n_pre @ n_wr with
    | [] -> []
    | axes ->
      [ ("space", J.Obj (List.map (fun (k, a) -> (k, J.List (Array.to_list a))) axes)) ]
  in
  return
    (J.Obj
       [ ("id", J.Int 1); ("endpoint", J.String "optimize");
         ("query",
          J.Obj ([ ("capacity_bits", J.Int capacity_bits); ("w", J.Int w) ] @ space)) ])

(* Any JSON tree, its object keys drawn from the protocol's field names.
   A field's value is as often one of the type its decoder reads (a
   power-of-two capacity, a protocol word, a grid) as any tree, so
   decoding gets past the first field checks. *)
let protocol_tree_gen =
  let open QCheck.Gen in
  let keys =
    [ "id"; "endpoint"; "deadline_ms"; "trace_id"; "query"; "status";
      "payload"; "code"; "message"; "capacity_bits"; "flavor"; "method";
      "strategy"; "rng_seed"; "objective"; "accounting"; "w"; "space";
      "vssc_v"; "nr"; "n_pre"; "n_wr" ]
  in
  let words =
    [ "ping"; "stats"; "metrics"; "shutdown"; "optimize"; "explain"; "ok";
      "error"; "bad_request"; "busy"; "deadline"; "shutting_down";
      "internal"; "hvt"; "lvt"; "m1"; "m2"; "nsga2"; "m1:nsga2"; "local";
      "anneal"; "surrogate"; "exhaustive"; "edp"; "energy"; "delay";
      "strict"; "physical"; "" ]
  in
  let scalar =
    oneof
      [ return J.Null;
        map (fun b -> J.Bool b) bool;
        map (fun i -> J.Int i)
          (oneof [ int; int_range (-3) 70; oneofl [ 8192; max_int; min_int ] ]);
        map (fun f -> J.Float f)
          (oneof [ float; oneofl [ Float.nan; Float.infinity; -0.0; -0.12 ] ]);
        map (fun s -> J.String s)
          (oneof [ oneofl words; string_size ~gen:printable (int_bound 8) ]) ]
  in
  let grid g = map (fun l -> J.List l) (list_size (int_range 1 4) g) in
  let pow2 lo hi = map (fun e -> J.Int (1 lsl e)) (int_range lo hi) in
  let tree =
    fix (fun self depth ->
        let typed = function
          | "capacity_bits" -> pow2 8 20
          | "w" -> pow2 0 8
          | "id" | "rng_seed" -> map (fun i -> J.Int i) int
          | "vssc_v" ->
            grid (map (fun k -> J.Float (-0.01 *. float_of_int k)) (int_bound 24))
          | "nr" -> grid (pow2 1 10)
          | "n_pre" | "n_wr" -> grid (map (fun i -> J.Int i) (int_range 1 50))
          | "query" | "space" | "payload" -> self (depth - 1)
          | _ -> map (fun s -> J.String s) (oneofl words)
        in
        let field =
          let* k = oneofl keys in
          let* v = frequency [ (2, typed k); (1, self (depth - 1)) ] in
          return (k, v)
        in
        if depth = 0 then scalar
        else
          frequency
            [ (1, scalar);
              (1, map (fun l -> J.List l) (list_size (int_bound 4) (self (depth - 1))));
              (4, map (fun kvs -> J.Obj kvs) (list_size (int_bound 8) field)) ])
  in
  (* Half the roots lead with a well-typed request or response head. *)
  let* head =
    let* id = int in
    let* endpoint = frequency [ (3, oneofl [ "optimize"; "explain" ]); (1, oneofl words) ] in
    let* status = frequency [ (3, oneofl [ "ok"; "error" ]); (1, oneofl words) ] in
    let* query = tree 3 in
    let* capacity = pow2 8 20 in
    let query =
      match query with
      | J.Obj kvs -> J.Obj (("capacity_bits", capacity) :: kvs)
      | j -> j
    in
    oneofl
      [ [];
        [ ("id", J.Int id); ("endpoint", J.String endpoint); ("status", J.String status);
          ("query", query) ] ]
  in
  map (function J.Obj kvs -> J.Obj (head @ kvs) | j -> j) (tree 4)

let protocol_tests =
  [ QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"any JSON tree decodes or is refused, never raises"
         ~count:3000
         (QCheck.make ~print:(fun j -> Printf.sprintf "%S" (J.to_string j)) protocol_tree_gen)
         (fun j ->
           match (P.request_of_json j, P.response_of_json j) with
           | _ -> true
           | exception e ->
             QCheck.Test.fail_reportf "decoder raised %s" (Printexc.to_string e)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"wild queries are refused or answered, never raise"
         ~count:200
         (QCheck.make ~print:J.to_string wild_query_gen)
         (fun j ->
           match P.request_of_json j with
           | exception e ->
             QCheck.Test.fail_reportf "decoder raised %s" (Printexc.to_string e)
           | Error _ -> true
           | Ok { P.endpoint = P.Optimize q; _ } when q.P.capacity_bits <= 1024 * 8 -> (
             let space =
               if q.P.space = P.no_override then None
               else Some (P.space_of_override q.P.space)
             in
             match
               Sram_edp.Framework.optimize ?space ~w:q.P.w ~capacity_bits:q.P.capacity_bits
                 ~config:{ Sram_edp.Framework.flavor = q.P.flavor; method_ = q.P.method_ } ()
             with
             | _ -> true
             | exception e ->
               QCheck.Test.fail_reportf "accepted query raised %s" (Printexc.to_string e))
           | Ok _ -> true));
 QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"requests round-trip bit-exactly" ~count:300
         (QCheck.make request_gen)
         (fun r ->
           match P.request_of_json (P.request_to_json r) with
           | Ok r' -> json_eq (P.request_to_json r') (P.request_to_json r)
           | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"responses round-trip bit-exactly" ~count:300
         (QCheck.make response_gen)
         (fun r ->
           match P.response_of_json (P.response_to_json r) with
           | Ok r' -> json_eq (P.response_to_json r') (P.response_to_json r)
           | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e));
    case "garbage JSON is a decode error, not an exception" (fun () ->
        List.iter
          (fun s ->
            match J.of_string s with
            | Error _ -> ()
            | Ok j -> (
              match P.request_of_json j with
              | Error _ -> ()
              | Ok _ -> Alcotest.failf "accepted %s" s))
          [ "[]"; "{}"; "{\"id\":\"x\"}"; "{\"id\":1}";
            "{\"id\":1,\"endpoint\":\"warp\"}";
            "{\"id\":1,\"endpoint\":\"optimize\"}";
            "{\"id\":1,\"endpoint\":\"explain\"}";
            "{\"id\":1,\"endpoint\":\"optimize\",\"query\":{\"w\":0}}"; "7" ]);
    case "capacity_bits must be a positive power of two" (fun () ->
        let decode bits =
          let q = { P.default_query with P.capacity_bits = bits } in
          P.request_of_json
            (P.request_to_json
               { P.id = 1; deadline_ms = None; trace_id = None; endpoint = P.Optimize q })
        in
        List.iter
          (fun bits ->
            match decode bits with
            | Error e ->
              Alcotest.(check bool) ("names the field: " ^ e) true
                (String.starts_with ~prefix:"bad capacity_bits" e)
            | Ok _ -> Alcotest.failf "accepted capacity_bits %d" bits)
          [ 0; -8; 1000 ];
        List.iter
          (fun bits ->
            match decode bits with
            | Ok { P.endpoint = P.Optimize q; _ } ->
              Alcotest.(check int) "decoded" bits q.P.capacity_bits
            | Ok _ -> Alcotest.fail "decoded another endpoint"
            | Error e -> Alcotest.failf "rejected %d: %s" bits e)
          Sram_edp.Framework.paper_capacities);
    case "a payload with no JSON form is answered as internal" (fun () ->
        let r =
          { P.rid = 7; rtrace_id = Some "t-1";
            body = Ok (J.Obj [ ("x", J.Float Float.nan) ]) }
        in
        let sent, payload = P.encode_response r in
        let is_internal (r : P.response) =
          r.P.rid = 7 && r.P.rtrace_id = Some "t-1"
          && match r.P.body with Error (P.Internal, _) -> true | _ -> false
        in
        Alcotest.(check bool) "sent as internal" true (is_internal sent);
        match Result.bind (J.of_string payload) P.response_of_json with
        | Ok wire -> Alcotest.(check bool) "wire says internal" true (is_internal wire)
        | Error e -> Alcotest.failf "payload does not decode: %s" e);
    case "space_of_override replaces only the named axes" (fun () ->
        let s = P.space_of_override { P.no_override with P.nr = Some [| 64 |] } in
        Alcotest.(check (array int)) "nr" [| 64 |] s.Opt.Space.nr_values;
        Alcotest.(check int) "vssc untouched"
          (Array.length Opt.Space.default.Opt.Space.vssc_values)
          (Array.length s.Opt.Space.vssc_values))
  ]

(* ----- end-to-end, against a forked server ----- *)

let with_server ?(configure = fun c -> c) f =
  Runtime.Pool.set_default_jobs 1;
  let path = fresh_sock () in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    Runtime.Memo.reset_all ();
    let cfg =
      configure
        { Serve.Server.default_config with
          Serve.Server.socket_path = Some path;
          install_signals = false }
    in
    (try ignore (Serve.Server.run cfg) with _ -> ());
    Unix._exit 0
  | pid ->
    Fun.protect
      ~finally:(fun () ->
        (* Belt and braces: ask nicely, then reap; kill if the ask
           cannot be delivered. *)
        (match Serve.Client.connect ~socket_path:path () with
        | Ok c ->
          ignore (Serve.Client.shutdown c);
          Serve.Client.close c
        | Error _ -> (
          try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()));
        ignore (Unix.waitpid [] pid))
      (fun () ->
        match Serve.Client.wait_ready ~socket_path:path () with
        | Error e -> Alcotest.failf "server did not come up: %s" e
        | Ok c -> Fun.protect ~finally:(fun () -> Serve.Client.close c)
                    (fun () -> f path c))

let reduced_query =
  { P.default_query with
    P.capacity_bits = 1024 * 8;
    space = P.reduced_override }

let get = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" e

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* The server on a second thread of this process, so its flight
   recorder's dump counter is this process's.  A thread, not a domain:
   the forked-server tests cannot fork once a domain has been
   spawned. *)
let with_inprocess_server f =
  Runtime.Pool.set_default_jobs 1;
  let path = fresh_sock () in
  let cfg =
    { Serve.Server.default_config with
      Serve.Server.socket_path = Some path;
      install_signals = false;
      flight_dir = Some (Filename.concat tmp_root "flight_inprocess") }
  in
  let server = Thread.create (fun () -> ignore (Serve.Server.run cfg)) () in
  Fun.protect
    ~finally:(fun () ->
      (match Serve.Client.connect ~socket_path:path () with
      | Ok c ->
        ignore (Serve.Client.shutdown c);
        Serve.Client.close c
      | Error _ -> ());
      Thread.join server)
    (fun () ->
      match Serve.Client.wait_ready ~socket_path:path () with
      | Error e -> Alcotest.failf "server did not come up: %s" e
      | Ok c -> Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () -> f path))

let read_response fd =
  match F.read fd with
  | Ok s -> Result.bind (J.of_string s) P.response_of_json
  | Error e -> Error (F.error_to_string e)

(* Each query the server must refuse at the boundary, with the field its
   answer has to name. *)
let refused_queries =
  let kb n = string_of_int (n * 1024 * 8) in
  let q ?(capacity = kb 16) fields =
    Printf.sprintf "{\"capacity_bits\":%s%s}" capacity
      (String.concat "" (List.map (fun f -> "," ^ f) fields))
  in
  (* Fin axes 1..n_pre and 1..n_wr: past 65,536 geometries with ten n_r. *)
  let fins n_pre n_wr =
    let axis n = String.concat "," (List.init n (fun i -> string_of_int (i + 1))) in
    Printf.sprintf {|"space":{"n_pre":[%s],"n_wr":[%s]}|} (axis n_pre) (axis n_wr)
  in
  [ (q [ {|"space":{"vssc_v":[5.0]}|} ], "space.vssc_v");
    (q [ {|"space":{"vssc_v":[1e308]}|} ], "space.vssc_v");
    (q [ {|"space":{"vssc_v":[-3.0]}|} ], "space.vssc_v");
    (q [ {|"space":{"vssc_v":[0.0,-0.1,-0.1]}|} ], "space.vssc_v");
    (q [ {|"space":{"vssc_v":[]}|} ], "space.vssc_v");
    (q ~capacity:"67108864" [], "capacity_bits");
    (q ~capacity:"1" [], "capacity_bits");
    (q ~capacity:(kb 256) [ {|"w":1|} ], "w");
    (q ~capacity:(kb 64) [ {|"w":2|} ], "w");
    (q [ {|"w":3|} ], "w");
    (q [ {|"w":0|} ], "w");
    (q [ {|"space":{"nr":[32768]}|} ], "space.nr");
    (q [ {|"space":{"nr":[]}|} ], "space.nr");
    (q [ {|"space":{"nr":[3]}|} ], "space.nr");
    (q [ {|"space":{"n_pre":[0]}|} ], "space.n_pre");
    (q [ {|"space":{"n_pre":[4611686018427387903]}|} ], "space.n_pre");
    (q [ {|"space":{"n_wr":[4611686018427387903]}|} ], "space.n_wr");
    (q [ fins 256 256 ], "space.n_pre");
    (q [ fins 40 256 ], "space.n_wr") ]

(* Decodable queries from the corners of what [Opt.Space.check] accepts:
   every space below (single-point and 1,024-fin axes among them) at
   128 B and 1 KB, crossed with every strategy, objective and method; the
   flavor, accounting and seed cycle underneath. *)
let wild_decodable_queries =
  let spaces =
    [ P.no_override;
      { P.vssc = Some [| 0.0 |]; nr = Some [| 16 |]; n_pre = Some [| 1 |]; n_wr = Some [| 1 |] };
      { P.no_override with P.n_pre = Some [| 1024 |]; n_wr = Some [| 1; 1024 |] };
      { P.vssc = Some [| 0.0; -0.12; -0.24 |]; nr = Some [| 8; 32 |];
        n_pre = Some [| 2; 8 |]; n_wr = Some [| 2; 4 |] };
      { P.no_override with P.nr = Some [| 2; 4 |] };
      { P.no_override with P.vssc = Some [| -0.05 |] } ]
  in
  let cross xs ys = List.concat_map (fun x -> List.map (fun y -> (x, y)) ys) xs in
  let axes =
    cross (cross spaces [ 1024; 1024 * 8 ])
      (cross
         (cross Opt.Strategy.[ Exhaustive; Local_search; Anneal; Nsga2; Surrogate ]
            Opt.Objective.
              [ Energy_delay_product; Energy_delay_squared; Energy_only; Delay_only ])
         Opt.Space.[ M1; M2 ])
  in
  List.mapi
    (fun k ((space, capacity_bits), ((strategy, objective), method_)) ->
      { P.default_query with
        P.capacity_bits;
        flavor = (if (k + (k / 2)) mod 2 = 0 then Finfet.Library.Hvt else Finfet.Library.Lvt);
        method_;
        strategy;
        rng_seed = k;
        objective;
        accounting =
          (if k / 3 mod 2 = 0 then Array_model.Array_eval.Paper_strict
           else Array_model.Array_eval.Physical);
        space })
    axes

let server_tests =
  [ case "a deeply nested frame is refused and holds up no other client"
      (fun () ->
        with_inprocess_server (fun path ->
            let connect () =
              let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
              Unix.connect fd (Unix.ADDR_UNIX path);
              fd
            in
            let deep = connect () and other = connect () in
            Fun.protect
              ~finally:(fun () -> Unix.close deep; Unix.close other)
              (fun () ->
                (* 4,194,300 bytes: the largest such frame under the cap. *)
                let half = (F.max_frame_default / 2) - 2 in
                let t0 = Unix.gettimeofday () in
                F.write deep (String.make half '[' ^ String.make half ']');
                F.write other {|{"id":2,"endpoint":"ping"}|};
                (match read_response other with
                | Ok { P.body = Ok _; _ } -> ()
                | _ -> Alcotest.fail "ping on a second connection");
                (match read_response deep with
                | Ok { P.body = Error (P.Bad_request, msg); _ } ->
                  Alcotest.(check bool) ("names the limit: " ^ msg) true
                    (String.starts_with ~prefix:"nesting deeper than 64 levels" msg)
                | Ok _ -> Alcotest.fail "expected bad_request"
                | Error e -> Alcotest.failf "no answer: %s" e);
                let dt = Unix.gettimeofday () -. t0 in
                Alcotest.(check bool) (Printf.sprintf "answered in %.3f s" dt) true
                  (dt < 1.0);
                F.write deep {|{"id":3,"endpoint":"ping"}|};
                match read_response deep with
                | Ok { P.body = Ok _; _ } -> ()
                | _ -> Alcotest.fail "ping after the refusal")));
    case "refused queries answer bad_request naming the field" (fun () ->
        with_inprocess_server (fun path ->
            let dumps = Obs.Flight.dumps_written () in
            let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
                Unix.connect fd (Unix.ADDR_UNIX path);
                List.iteri
                  (fun id (query, field) ->
                    let endpoint = if id mod 2 = 0 then "optimize" else "explain" in
                    F.write fd
                      (Printf.sprintf {|{"id":%d,"endpoint":"%s","query":%s}|} id endpoint query);
                    match read_response fd with
                    | Ok { P.body = Error (P.Bad_request, msg); _ } ->
                      Alcotest.(check bool)
                        (Printf.sprintf "%s names %s: %s" query field msg)
                        true
                        (String.starts_with ~prefix:("bad " ^ field ^ ": ") msg)
                    | Ok _ -> Alcotest.failf "%s: expected bad_request" query
                    | Error e -> Alcotest.failf "%s: no answer on the connection: %s" query e)
                  refused_queries;
                F.write fd {|{"id":99,"endpoint":"ping"}|};
                (match read_response fd with
                | Ok { P.body = Ok _; _ } -> ()
                | _ -> Alcotest.fail "ping after the refusals");
                Alcotest.(check int) "no flight dump" dumps (Obs.Flight.dumps_written ()))));
    case "decodable wild queries never answer internal" (fun () ->
        with_inprocess_server (fun path ->
            let dumps = Obs.Flight.dumps_written () in
            let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
                Unix.connect fd (Unix.ADDR_UNIX path);
                List.iteri
                  (fun k q ->
                    List.iter
                      (fun endpoint ->
                        let r =
                          { P.id = k; deadline_ms = None; trace_id = None; endpoint }
                        in
                        let text = J.to_string (P.request_to_json r) in
                        (match Result.bind (J.of_string text) P.request_of_json with
                        | Ok _ -> ()
                        | Error e -> Alcotest.failf "%s: not decodable: %s" text e);
                        F.write fd text;
                        match read_response fd with
                        | Ok { P.body = Ok _; _ } -> ()
                        | Ok { P.body = Error (code, msg); _ } ->
                          Alcotest.failf "%s: answered %s: %s" text
                            (P.error_code_to_string code) msg
                        | Error e -> Alcotest.failf "%s: no answer: %s" text e)
                      [ P.Optimize q; P.Explain q ])
                  wild_decodable_queries;
                Alcotest.(check int) "no flight dump" dumps (Obs.Flight.dumps_written ()))));
 case "warm repeat answers bit-identically to the one-shot path"
      (fun () ->
        with_server (fun _path c ->
            let a = get (Serve.Client.optimize c reduced_query) in
            let b = get (Serve.Client.optimize c reduced_query) in
            Alcotest.(check string) "warm = cold checksum"
              a.Serve.Client.checksum b.Serve.Client.checksum;
            let local =
              Sram_edp.Framework.optimize ~space:Opt.Space.reduced
                ~capacity_bits:(1024 * 8)
                ~config:
                  { Sram_edp.Framework.flavor = Finfet.Library.Hvt;
                    method_ = Opt.Space.M2 }
                ()
            in
            Alcotest.(check string) "server = in-process checksum"
              (Opt.Exhaustive.checksum [ local.Sram_edp.Framework.result ])
              a.Serve.Client.checksum;
            Alcotest.(check string) "decoded winner re-derives checksum"
              a.Serve.Client.checksum
              (Opt.Exhaustive.checksum [ a.Serve.Client.result ])));
    case "wire method=nsga2 matches the one-shot strategy path bit-for-bit"
      (fun () ->
        with_server (fun path c ->
            (* Through the typed client: strategy + seed in the query
               record. *)
            let q =
              { reduced_query with
                P.strategy = Opt.Strategy.Nsga2;
                rng_seed = Opt.Strategy.default_seed }
            in
            let a = get (Serve.Client.optimize c q) in
            let local =
              Sram_edp.Framework.optimize ~space:Opt.Space.reduced
                ~strategy:Opt.Strategy.Nsga2
                ~rng_seed:Opt.Strategy.default_seed
                ~capacity_bits:(1024 * 8)
                ~config:
                  { Sram_edp.Framework.flavor = Finfet.Library.Hvt;
                    method_ = Opt.Space.M2 }
                ()
            in
            Alcotest.(check string) "server nsga2 = in-process checksum"
              (Opt.Exhaustive.checksum [ local.Sram_edp.Framework.result ])
              a.Serve.Client.checksum;
            (* Raw frame speaking the "method" grammar: no "strategy"
               field at all, ["method"] = "nsga2" selects the engine. *)
            let patch_query = function
              | J.Obj fields ->
                J.Obj
                  (List.filter_map
                     (function
                       | "strategy", _ -> None
                       | "method", _ -> Some ("method", J.String "nsga2")
                       | kv -> Some kv)
                     fields)
              | j -> j
            in
            let raw_request ~id ~method_str =
              match
                P.request_to_json
                  { P.id; deadline_ms = None; trace_id = None;
                    endpoint = P.Optimize reduced_query }
              with
              | J.Obj fields ->
                J.to_string
                  (J.Obj
                     (List.map
                        (function
                          | "query", qj ->
                            let qj = patch_query qj in
                            let qj =
                              match (qj, method_str) with
                              | J.Obj fs, Some s ->
                                J.Obj
                                  (List.map
                                     (function
                                       | "method", _ ->
                                         ("method", J.String s)
                                       | kv -> kv)
                                     fs)
                              | _ -> qj
                            in
                            ("query", qj)
                          | kv -> kv)
                        fields))
              | _ -> Alcotest.fail "request_to_json is not an object"
            in
            let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
            Unix.connect fd (Unix.ADDR_UNIX path);
            F.write fd (raw_request ~id:11 ~method_str:None);
            (match F.read fd with
            | Ok s -> (
              match Result.bind (J.of_string s) P.response_of_json with
              | Ok { P.body = Ok payload; _ } ->
                Alcotest.(check (option string))
                  "wire method=nsga2 checksum = typed-client checksum"
                  (Some a.Serve.Client.checksum)
                  (J.string_field payload "checksum")
              | Ok { P.body = Error (_, m); _ } ->
                Alcotest.failf "method=nsga2 rejected: %s" m
              | Error e -> Alcotest.failf "undecodable response: %s" e)
            | Error e ->
              Alcotest.failf "no response to method=nsga2: %s"
                (F.error_to_string e));
            (* An unknown method spelling is a typed bad_request and the
               connection survives it. *)
            F.write fd (raw_request ~id:12 ~method_str:(Some "warp-drive"));
            (match F.read fd with
            | Ok s -> (
              match Result.bind (J.of_string s) P.response_of_json with
              | Ok { P.body = Error (P.Bad_request, _); _ } -> ()
              | Ok _ -> Alcotest.fail "expected bad_request for warp-drive"
              | Error e -> Alcotest.failf "undecodable response: %s" e)
            | Error e ->
              Alcotest.failf "no response to bad method: %s"
                (F.error_to_string e));
            F.write fd
              (J.to_string
                 (P.request_to_json
                    { P.id = 13; deadline_ms = None; trace_id = None;
                      endpoint = P.Ping }));
            match F.read fd with
            | Ok _ -> ()
            | Error e ->
              Alcotest.failf "ping after bad method: %s"
                (F.error_to_string e)));
    case "explain reuses the optimize memo and refolds bit-exactly"
      (fun () ->
        with_server (fun _path c ->
            let a = get (Serve.Client.optimize c reduced_query) in
            let e = get (Serve.Client.explain c reduced_query) in
            (* Same memoized search: the explain payload names the very
               winner optimize returned. *)
            Alcotest.(check (option string)) "same winner checksum"
              (Some a.Serve.Client.checksum)
              (J.string_field e "checksum");
            Alcotest.(check (option bool)) "attribution refolds bit-exactly"
              (Some true)
              (Option.bind
                 (J.member "attribution" e)
                 (fun at -> Option.bind
                     (J.member "consistent_bitwise" at) J.to_bool));
            let edp_bits j =
              Option.map Int64.bits_of_float
                (Option.bind (J.member "attribution" j) (fun at ->
                     Option.bind (J.member "metrics" at) (fun m ->
                         J.float_field m "edp_js")))
            in
            let winner_edp =
              a.Serve.Client.result.Opt.Exhaustive.best.Opt.Exhaustive.metrics
                .Array_model.Array_eval.edp
            in
            Alcotest.(check (option int64)) "attributed EDP is the winner's"
              (Some (Int64.bits_of_float winner_edp))
              (edp_bits e);
            (match Option.bind (J.member "sensitivity" e) J.to_list with
            | Some axes ->
              Alcotest.(check int) "four sensitivity axes" 4 (List.length axes)
            | None -> Alcotest.fail "sensitivity section missing");
            (* The journal armed at server startup saw the search; the
               exposition carries its counters. *)
            let text = get (Serve.Client.metrics c) in
            Alcotest.(check bool) "search counters exposed" true
              (contains ~needle:"sram_opt_search_incumbents_total" text)));
    case "a corrupt frame gets an answer and the server keeps serving"
      (fun () ->
        with_server (fun path c ->
            let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            Unix.connect fd (Unix.ADDR_UNIX path);
            (* Valid header, wrong CRC: the server must answer (or
               close) this connection without dying. *)
            let payload = "{\"id\":9,\"endpoint\":\"ping\"}" in
            let b = Bytes.create 8 in
            Bytes.set_int32_le b 0 (Int32.of_int (String.length payload));
            Bytes.set_int32_le b 4 0xBAD0BADl;
            ignore (Unix.write fd b 0 8);
            ignore
              (Unix.write_substring fd payload 0 (String.length payload));
            (match F.read fd with
            | Ok _ | Error _ -> ());
            Unix.close fd;
            (* The healthy connection still works. *)
            ignore (get (Serve.Client.ping c))));
    case "unparseable request JSON answers bad_request, keeps connection"
      (fun () ->
        with_server (fun path c ->
            ignore c;
            let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            Unix.connect fd (Unix.ADDR_UNIX path);
            F.write fd "{\"not\":\"a request\"}";
            (match F.read fd with
            | Ok s -> (
              match Result.bind (J.of_string s) P.response_of_json with
              | Ok { P.body = Error (P.Bad_request, _); _ } -> ()
              | Ok _ -> Alcotest.fail "expected bad_request"
              | Error e -> Alcotest.failf "undecodable response: %s" e)
            | Error e ->
              Alcotest.failf "expected a response frame, got %s"
                (F.error_to_string e));
            (* Same connection still usable after the rejection. *)
            F.write fd
              (J.to_string
                 (P.request_to_json
                    { P.id = 2; deadline_ms = None; trace_id = None;
                      endpoint = P.Ping }));
            (match F.read fd with
            | Ok _ -> ()
            | Error e ->
              Alcotest.failf "ping after bad request: %s"
                (F.error_to_string e));
            Unix.close fd));
    case "client killed mid-request does not take the server down"
      (fun () ->
        with_server (fun path c ->
            flush stdout;
            flush stderr;
            (match Unix.fork () with
            | 0 ->
              (* Send a full optimize request, then vanish without
                 reading the response. *)
              let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
              (try
                 Unix.connect fd (Unix.ADDR_UNIX path);
                 F.write fd
                   (J.to_string
                      (P.request_to_json
                         { P.id = 1; deadline_ms = None; trace_id = None;
                           endpoint = P.Optimize reduced_query }))
               with _ -> ());
              Unix._exit 0
            | pid -> ignore (Unix.waitpid [] pid));
            (* And one that dies mid-frame: header only, then gone. *)
            let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            Unix.connect fd (Unix.ADDR_UNIX path);
            let b = Bytes.create 8 in
            Bytes.set_int32_le b 0 64l;
            Bytes.set_int32_le b 4 0l;
            ignore (Unix.write fd b 0 8);
            Unix.close fd;
            ignore (get (Serve.Client.ping c));
            ignore (get (Serve.Client.optimize c reduced_query))));
    case "an impossible deadline is a clean Deadline error" (fun () ->
        with_server (fun _path c ->
            (* Full default space at 16KB takes far longer than 1ms
               cold; the search must be cancelled, answered, and the
               server left healthy. *)
            let big = { P.default_query with P.capacity_bits = 16 * 1024 * 8 } in
            (match Serve.Client.optimize ~deadline_ms:1.0 c big with
            | Ok _ -> Alcotest.fail "expected a deadline error"
            | Error e ->
              Alcotest.(check bool)
                (Printf.sprintf "mentions deadline: %s" e)
                true
                (String.length e >= 8
                && (let lower = String.lowercase_ascii e in
                    let rec find i =
                      i + 8 <= String.length lower
                      && (String.sub lower i 8 = "deadline" || find (i + 1))
                    in
                    find 0)));
            (* Aborted search cached nothing and broke nothing. *)
            ignore (get (Serve.Client.optimize c reduced_query))));
    case "stats endpoint reports the served traffic" (fun () ->
        with_server (fun _path c ->
            ignore (get (Serve.Client.optimize c reduced_query));
            ignore (get (Serve.Client.optimize c reduced_query));
            let stats = get (Serve.Client.stats c) in
            let server =
              match J.member "server" stats with
              | Some s -> s
              | None -> Alcotest.fail "no server section in stats"
            in
            (match J.int_field server "req.optimize" with
            | Some n -> Alcotest.(check bool) "optimize counted" true (n >= 2)
            | None -> Alcotest.fail "no req.optimize counter");
            match J.member "memos" stats with
            | Some (J.List _) -> ()
            | _ -> Alcotest.fail "no memos section"));
    case "shutdown endpoint drains and the process exits" (fun () ->
        Runtime.Pool.set_default_jobs 1;
        let path = fresh_sock () in
        flush stdout;
        flush stderr;
        match Unix.fork () with
        | 0 ->
          Runtime.Memo.reset_all ();
          let cfg =
            { Serve.Server.default_config with
              Serve.Server.socket_path = Some path;
              install_signals = false }
          in
          (try ignore (Serve.Server.run cfg) with _ -> ());
          Unix._exit 0
        | pid ->
          let c = get (Serve.Client.wait_ready ~socket_path:path ()) in
          get (Serve.Client.shutdown c);
          Serve.Client.close c;
          (match Unix.waitpid [] pid with
          | _, Unix.WEXITED 0 -> ()
          | _ -> Alcotest.fail "server exited abnormally");
          Alcotest.(check bool) "socket unlinked" false (Sys.file_exists path));
    case "every engine answers a 1 ms deadline with deadline" (fun () ->
        (* 64,000 geometries x 241 V_SSC values at 16KB: uncancelled,
           the quickest engine (annealing) takes ~6 ms, the others
           12 ms to 2 s. *)
        let space =
          { P.no_override with
            P.vssc = Some (Array.init 241 (fun i -> -0.001 *. float_of_int i));
            n_pre = Some (Array.init 256 (fun i -> i + 1));
            n_wr = Some (Array.init 25 (fun i -> i + 1)) }
        in
        let expired = Runtime.Telemetry.counter "serve.deadline_expired" in
        with_inprocess_server (fun path ->
            let c = get (Serve.Client.connect ~socket_path:path ()) in
            Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () ->
                let before = Runtime.Telemetry.value expired in
                List.iter
                  (fun strategy ->
                    let q =
                      { P.default_query with
                        P.capacity_bits = 16 * 1024 * 8; strategy; space }
                    in
                    match Serve.Client.call ~deadline_ms:1.0 c (P.Optimize q) with
                    | Ok { P.body = Error (P.Deadline, _); _ } -> ()
                    | Ok { P.body = Error (code, msg); _ } ->
                      Alcotest.failf "%s answered %s: %s" (Opt.Strategy.name strategy)
                        (P.error_code_to_string code) msg
                    | Ok _ ->
                      Alcotest.failf "%s finished inside 1 ms" (Opt.Strategy.name strategy)
                    | Error e -> Alcotest.failf "%s: %s" (Opt.Strategy.name strategy) e)
                  Opt.Strategy.[ Exhaustive; Local_search; Anneal; Nsga2; Surrogate ];
                Alcotest.(check int) "serve.deadline_expired rose by one per engine" 5
                  (Runtime.Telemetry.value expired - before);
                ignore (get (Serve.Client.optimize c reduced_query))))) ]

(* ----- observability: trace ids, metrics, flight dumps ----- *)

let check_has what needle text =
  Alcotest.(check bool) what true (contains ~needle text)

let read_file path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  text

(* Structural check of the text exposition (format 0.0.4): every
   non-empty line is either a # comment or `name[{labels}] value` with
   a parseable value and a well-formed metric name. *)
let check_exposition_format text =
  List.iteri
    (fun i line ->
      if line <> "" && not (String.starts_with ~prefix:"#" line) then begin
        match String.rindex_opt line ' ' with
        | None -> Alcotest.failf "metrics line %d has no value: %S" i line
        | Some sp ->
          let name = String.sub line 0 sp in
          let value = String.sub line (sp + 1) (String.length line - sp - 1) in
          (match float_of_string_opt value with
          | Some _ -> ()
          | None ->
            if value <> "+Inf" && value <> "-Inf" && value <> "NaN" then
              Alcotest.failf "metrics line %d value %S does not parse" i value);
          (match name.[0] with
          | 'a' .. 'z' | 'A' .. 'Z' | '_' -> ()
          | c -> Alcotest.failf "metrics line %d name starts with %c" i c)
      end)
    (String.split_on_char '\n' text)

let observability_tests =
  [ case "responses echo the client trace id or carry a generated one"
      (fun () ->
        with_server (fun _path c ->
            (match Serve.Client.call ~trace_id:"my-trace-1" c P.Ping with
            | Ok r ->
              Alcotest.(check (option string)) "client id echoed"
                (Some "my-trace-1") r.P.rtrace_id
            | Error e -> Alcotest.failf "ping: %s" e);
            match Serve.Client.call c P.Ping with
            | Ok r -> (
              match r.P.rtrace_id with
              | Some id ->
                Alcotest.(check bool) "generated id non-empty" true
                  (String.length id > 0)
              | None -> Alcotest.fail "expected a server-generated trace id")
            | Error e -> Alcotest.failf "ping: %s" e));
    case "observability off: ids echoed when supplied, never invented"
      (fun () ->
        with_server
          ~configure:(fun cfg ->
            { cfg with Serve.Server.observability = false })
          (fun _path c ->
            (match Serve.Client.call ~trace_id:"still-echoed" c P.Ping with
            | Ok r ->
              Alcotest.(check (option string)) "echoed" (Some "still-echoed")
                r.P.rtrace_id
            | Error e -> Alcotest.failf "ping: %s" e);
            match Serve.Client.call c P.Ping with
            | Ok r ->
              Alcotest.(check (option string)) "no invented id" None
                r.P.rtrace_id
            | Error e -> Alcotest.failf "ping: %s" e));
    case "metrics endpoint serves parseable Prometheus exposition"
      (fun () ->
        with_server (fun _path c ->
            ignore (get (Serve.Client.optimize c reduced_query));
            let text = get (Serve.Client.metrics c) in
            check_has "requests counter typed"
              "# TYPE sram_opt_serve_requests_total counter" text;
            check_has "requests counter present"
              "sram_opt_serve_requests_total " text;
            check_has "windowed e2e p99"
              "sram_opt_serve_e2e_seconds_window{window=\"10s\",quantile=\"0.99\"}"
              text;
            check_has "cumulative e2e summary"
              "sram_opt_serve_e2e_seconds{quantile=\"0.5\"}" text;
            check_has "SLO counters windowed"
              "sram_opt_serve_events_window{event=\"serve_deadline_expired\",window=\"60s\"}"
              text;
            check_has "memo hit rate" "sram_opt_memo_hit_rate" text;
            check_has "gc words" "sram_opt_gc_major_words_total" text;
            check_has "build info" "sram_opt_build_info" text;
            check_exposition_format text));
    case "GET /metrics HTTP shim answers a plain scrape on the same listener"
      (fun () ->
        with_server (fun path c ->
            ignore (get (Serve.Client.ping c));
            let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            Unix.connect fd (Unix.ADDR_UNIX path);
            let req = "GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n" in
            ignore (Unix.write_substring fd req 0 (String.length req));
            let buf = Buffer.create 4096 in
            let b = Bytes.create 4096 in
            let rec drain () =
              match Unix.read fd b 0 4096 with
              | 0 -> ()
              | n ->
                Buffer.add_subbytes buf b 0 n;
                drain ()
              | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _)
                -> ()
            in
            drain ();
            Unix.close fd;
            let text = Buffer.contents buf in
            Alcotest.(check bool) "HTTP 200" true
              (String.starts_with ~prefix:"HTTP/1.1 200 OK\r\n" text);
            check_has "exposition content type"
              "Content-Type: text/plain; version=0.0.4" text;
            check_has "serve counters over HTTP"
              "sram_opt_serve_requests_total" text;
            (* The frame protocol still works after an HTTP exchange. *)
            ignore (get (Serve.Client.ping c))));
    case "stats exposes windowed views alongside cumulative" (fun () ->
        with_server (fun _path c ->
            ignore (get (Serve.Client.optimize c reduced_query));
            let stats = get (Serve.Client.stats c) in
            let windows =
              match J.member "windows" stats with
              | Some w -> w
              | None -> Alcotest.fail "no windows section in stats"
            in
            (match J.member "histograms" windows with
            | Some (J.List rows) ->
              Alcotest.(check bool) "serve.e2e windowed" true
                (List.exists
                   (fun r -> J.string_field r "name" = Some "serve.e2e")
                   rows);
              List.iter
                (fun r ->
                  match J.member "windows" r with
                  | Some (J.List (_ :: _)) -> ()
                  | _ -> Alcotest.fail "histogram row without window slices")
                rows
            | _ -> Alcotest.fail "windows.histograms missing");
            match J.member "counters" windows with
            | Some (J.List rows) ->
              Alcotest.(check bool) "deadline SLO counter windowed" true
                (List.exists
                   (fun r ->
                     J.string_field r "name" = Some "serve.deadline_expired")
                   rows)
            | _ -> Alcotest.fail "windows.counters missing"));
    case "deadline-cancelled request leaves a flight dump with its trace id"
      (fun () ->
        let dir = Filename.concat tmp_root "flight_deadline" in
        with_server
          ~configure:(fun cfg ->
            { cfg with Serve.Server.flight_dir = Some dir })
          (fun _path c ->
            let big =
              { P.default_query with P.capacity_bits = 16 * 1024 * 8 }
            in
            (match
               Serve.Client.call ~deadline_ms:1.0 ~trace_id:"dl-trace-7" c
                 (P.Optimize big)
             with
            | Ok { P.body = Error (P.Deadline, _); rtrace_id; _ } ->
              Alcotest.(check (option string)) "deadline response echoes id"
                (Some "dl-trace-7") rtrace_id
            | Ok _ -> Alcotest.fail "expected a deadline error"
            | Error e -> Alcotest.failf "call: %s" e);
            (* The dump is written before the loop takes the next
               request, so a served ping means it is on disk. *)
            ignore (get (Serve.Client.ping c));
            let dumps =
              Sys.readdir dir |> Array.to_list
              |> List.filter (String.starts_with ~prefix:"flight-")
            in
            Alcotest.(check bool) "a flight dump exists" true (dumps <> []);
            let text = read_file (Filename.concat dir (List.hd dumps)) in
            check_has "chrome trace shape" "\"traceEvents\"" text;
            check_has "request attributed" "dl-trace-7" text;
            match Persist.Json.of_string text with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "dump is not valid JSON: %s" e)) ]

let () =
  Alcotest.run "serve"
    [ ("frame", frame_tests);
      ("protocol", protocol_tests);
      ("server", server_tests);
      ("observability", observability_tests)
    ]
