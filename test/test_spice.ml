(* Tests of the circuit-simulation substrate: netlist hygiene, DC
   operating points against hand-solvable circuits, sweeps, and the
   backward-Euler transient against analytic RC behaviour. *)

open Testutil

let lib = Lazy.force Finfet.Library.default
let nfet = Finfet.Library.nfet lib Finfet.Library.Lvt
let pfet = Finfet.Library.pfet lib Finfet.Library.Lvt

let netlist_tests =
  [ case "fresh nodes count up from 1" (fun () ->
        let n = Spice.Netlist.create () in
        Alcotest.(check int) "a" 1 (Spice.Netlist.fresh_node n "a");
        Alcotest.(check int) "b" 2 (Spice.Netlist.fresh_node n "b");
        Alcotest.(check int) "count" 3 (Spice.Netlist.num_nodes n));
    case "node names survive" (fun () ->
        let n = Spice.Netlist.create () in
        let a = Spice.Netlist.fresh_node n "alpha" in
        Alcotest.(check string) "gnd" "gnd" (Spice.Netlist.node_name n 0);
        Alcotest.(check string) "alpha" "alpha" (Spice.Netlist.node_name n a));
    case "vsource count tracks" (fun () ->
        let n = Spice.Netlist.create () in
        let a = Spice.Netlist.fresh_node n "a" in
        Spice.Netlist.vdc n ~plus:a ~minus:Spice.Netlist.ground ~volts:1.0;
        Spice.Netlist.vdc n ~plus:a ~minus:Spice.Netlist.ground ~volts:2.0;
        Alcotest.(check int) "two sources" 2 (Spice.Netlist.vsource_count n));
    case "validate rejects bad nodes" (fun () ->
        let n = Spice.Netlist.create () in
        Spice.Netlist.resistor n ~plus:5 ~minus:0 ~ohms:10.0;
        Alcotest.(check bool) "invalid" true
          (match Spice.Netlist.validate n with Error _ -> true | Ok () -> false));
    case "validate rejects non-positive resistance" (fun () ->
        let n = Spice.Netlist.create () in
        let a = Spice.Netlist.fresh_node n "a" in
        Spice.Netlist.resistor n ~plus:a ~minus:0 ~ohms:0.0;
        Alcotest.(check bool) "invalid" true
          (match Spice.Netlist.validate n with Error _ -> true | Ok () -> false));
    case "validate accepts a good netlist" (fun () ->
        let n = Spice.Netlist.create () in
        let a = Spice.Netlist.fresh_node n "a" in
        Spice.Netlist.vdc n ~plus:a ~minus:0 ~volts:1.0;
        Spice.Netlist.resistor n ~plus:a ~minus:0 ~ohms:100.0;
        Alcotest.(check bool) "valid" true (Spice.Netlist.validate n = Ok ()));
    case "waveform const" (fun () ->
        check_close "const" 1.5 (Spice.Netlist.waveform_at (Spice.Netlist.Const 1.5) 99.0));
    case "waveform step ramps linearly" (fun () ->
        let w = Spice.Netlist.Step { t_delay = 1.0; t_rise = 2.0; v0 = 0.0; v1 = 4.0 } in
        check_close "before" 0.0 (Spice.Netlist.waveform_at w 0.5);
        check_close "mid" 2.0 (Spice.Netlist.waveform_at w 2.0);
        check_close "after" 4.0 (Spice.Netlist.waveform_at w 5.0));
    case "waveform pwl interpolates and clamps" (fun () ->
        let w = Spice.Netlist.Pwl [ (0.0, 0.0); (1.0, 2.0); (3.0, 2.0) ] in
        check_close "interp" 1.0 (Spice.Netlist.waveform_at w 0.5);
        check_close "clamp lo" 0.0 (Spice.Netlist.waveform_at w (-1.0));
        check_close "clamp hi" 2.0 (Spice.Netlist.waveform_at w 10.0)) ]

let divider () =
  let n = Spice.Netlist.create () in
  let vin = Spice.Netlist.fresh_node n "vin" in
  let mid = Spice.Netlist.fresh_node n "mid" in
  Spice.Netlist.vdc n ~plus:vin ~minus:Spice.Netlist.ground ~volts:1.0;
  Spice.Netlist.resistor n ~plus:vin ~minus:mid ~ohms:1000.0;
  Spice.Netlist.resistor n ~plus:mid ~minus:Spice.Netlist.ground ~ohms:3000.0;
  (n, mid)

let dc_tests =
  [ case "resistor divider" (fun () ->
        let n, mid = divider () in
        let s = Spice.Dc.operating_point n in
        Alcotest.(check bool) "converged" true s.Spice.Dc.converged;
        check_close ~tol:1e-6 "3/4 volt" 0.75 (Spice.Dc.node_voltage s mid));
    case "source current of the divider" (fun () ->
        let n, _ = divider () in
        let s = Spice.Dc.operating_point n in
        (* 1 V across 4 kOhm: 0.25 mA leaves the + terminal, so the branch
           current (into +) is -0.25 mA. *)
        check_close ~tol:1e-6 "branch" (-0.25e-3) s.Spice.Dc.source_currents.(0));
    case "current source into a resistor" (fun () ->
        let n = Spice.Netlist.create () in
        let a = Spice.Netlist.fresh_node n "a" in
        Spice.Netlist.resistor n ~plus:a ~minus:Spice.Netlist.ground ~ohms:2000.0;
        Spice.Netlist.idc n ~from_node:Spice.Netlist.ground ~to_node:a ~amps:1e-3;
        let s = Spice.Dc.operating_point n in
        check_close ~tol:1e-5 "IR" 2.0 (Spice.Dc.node_voltage s a));
    case "floating node settles to ground through gmin" (fun () ->
        let n = Spice.Netlist.create () in
        let a = Spice.Netlist.fresh_node n "floating" in
        ignore a;
        let s = Spice.Dc.operating_point n in
        check_close_abs ~tol:1e-6 "float" 0.0 (Spice.Dc.node_voltage s a));
    case "inverter rails" (fun () ->
        let build vin_v =
          let n = Spice.Netlist.create () in
          let vdd = Spice.Netlist.fresh_node n "vdd" in
          let vin = Spice.Netlist.fresh_node n "vin" in
          let vout = Spice.Netlist.fresh_node n "vout" in
          Spice.Netlist.vdc n ~plus:vdd ~minus:0 ~volts:0.45;
          Spice.Netlist.vdc n ~plus:vin ~minus:0 ~volts:vin_v;
          Spice.Netlist.fet n ~params:pfet ~gate:vin ~drain:vout ~source:vdd ();
          Spice.Netlist.fet n ~params:nfet ~gate:vin ~drain:vout ~source:0 ();
          n
        in
        let s0 = Spice.Dc.operating_point (build 0.0) in
        let s1 = Spice.Dc.operating_point (build 0.45) in
        check_close ~tol:1e-3 "out high" 0.45 (Spice.Dc.node_voltage s0 3);
        check_close_abs ~tol:1e-3 "out low" 0.0 (Spice.Dc.node_voltage s1 3));
    case "inverter VTC is monotone decreasing" (fun () ->
        let build vin_v =
          let n = Spice.Netlist.create () in
          let vdd = Spice.Netlist.fresh_node n "vdd" in
          let vin = Spice.Netlist.fresh_node n "vin" in
          let vout = Spice.Netlist.fresh_node n "vout" in
          ignore vout;
          Spice.Netlist.vdc n ~plus:vdd ~minus:0 ~volts:0.45;
          Spice.Netlist.vdc n ~plus:vin ~minus:0 ~volts:vin_v;
          Spice.Netlist.fet n ~params:pfet ~gate:vin ~drain:vout ~source:vdd ();
          Spice.Netlist.fet n ~params:nfet ~gate:vin ~drain:vout ~source:0 ();
          n
        in
        let points = Array.init 19 (fun i -> 0.025 *. float_of_int i) in
        (* vin is the second voltage source *)
        let sols = Spice.Dc.sweep (build 0.0) ~source:1 ~points in
        let outs = Array.map (fun s -> Spice.Dc.node_voltage s 3) sols in
        check_decreasing "VTC" outs;
        Array.iter
          (fun s -> Alcotest.(check bool) "conv" true s.Spice.Dc.converged)
          sols);
    case "warm start reproduces cold-start solutions" (fun () ->
        let n, mid = divider () in
        let cold = Spice.Dc.operating_point n in
        let warm = Spice.Dc.operating_point ~x0:(Spice.Dc.solution_vector cold) n in
        check_close ~tol:1e-9 "same" (Spice.Dc.node_voltage cold mid)
          (Spice.Dc.node_voltage warm mid));
    case "sweep rejects a source index the netlist does not have" (fun () ->
        let n, _ = divider () in
        List.iter
          (fun source ->
            Alcotest.(check bool) (Printf.sprintf "source %d" source) true
              (try ignore (Spice.Dc.sweep n ~source ~points:[| 0.1 |]); false
               with Invalid_argument _ -> true))
          [ -1; Spice.Netlist.vsource_count n ]);
    case "operating_point rejects invalid netlists" (fun () ->
        let n = Spice.Netlist.create () in
        Spice.Netlist.resistor n ~plus:9 ~minus:0 ~ohms:1.0;
        Alcotest.(check bool) "raises" true
          (try ignore (Spice.Dc.operating_point n); false
           with Invalid_argument _ -> true)) ]

let rc_netlist () =
  let n = Spice.Netlist.create () in
  let vin = Spice.Netlist.fresh_node n "vin" in
  let out = Spice.Netlist.fresh_node n "out" in
  Spice.Netlist.vwave n ~plus:vin ~minus:Spice.Netlist.ground
    ~wave:(Spice.Netlist.Step { t_delay = 0.0; t_rise = 1e-12; v0 = 0.0; v1 = 1.0 });
  Spice.Netlist.resistor n ~plus:vin ~minus:out ~ohms:1000.0;
  Spice.Netlist.capacitor n ~plus:out ~minus:Spice.Netlist.ground ~farads:1e-9;
  (n, out)

let transient_tests =
  [ case "RC charge curve" (fun () ->
        let n, out = rc_netlist () in
        let tr = Spice.Transient.run ~t_stop:5e-6 ~ic:[ (out, 0.0) ] n in
        check_close ~tol:6e-3 "one tau" (1.0 -. exp (-1.0))
          (value_at tr ~node:out ~time:1e-6);
        check_close ~tol:2e-2 "three tau" (1.0 -. exp (-3.0))
          (value_at tr ~node:out ~time:3e-6));
    case "RC 50% crossing at tau ln 2" (fun () ->
        let n, out = rc_netlist () in
        let tr = Spice.Transient.run ~t_stop:5e-6 ~ic:[ (out, 0.0) ] n in
        match
          Spice.Transient.crossing_time tr ~node:out ~threshold:0.5 ~direction:`Rising
        with
        | Some t -> check_close ~tol:2e-2 "ln2 us" (log 2.0 *. 1e-6) t
        | None -> Alcotest.fail "no crossing");
    case "initial conditions pin storage nodes" (fun () ->
        let n, out = rc_netlist () in
        let tr = Spice.Transient.run ~t_stop:1e-9 ~ic:[ (out, 0.7) ] n in
        check_close "ic" 0.7 (Spice.Transient.node_trace tr out).(0));
    case "no crossing returns None" (fun () ->
        let n, out = rc_netlist () in
        let tr = Spice.Transient.run ~t_stop:1e-8 ~ic:[ (out, 0.0) ] n in
        Alcotest.(check bool) "none" true
          (Spice.Transient.crossing_time tr ~node:out ~threshold:0.99
             ~direction:`Rising
           = None));
    case "falling crossing direction" (fun () ->
        let n = Spice.Netlist.create () in
        let vin = Spice.Netlist.fresh_node n "vin" in
        let out = Spice.Netlist.fresh_node n "out" in
        Spice.Netlist.vwave n ~plus:vin ~minus:0
          ~wave:(Spice.Netlist.Step { t_delay = 0.0; t_rise = 1e-12; v0 = 1.0; v1 = 0.0 });
        Spice.Netlist.resistor n ~plus:vin ~minus:out ~ohms:1000.0;
        Spice.Netlist.capacitor n ~plus:out ~minus:0 ~farads:1e-9;
        let tr = Spice.Transient.run ~t_stop:5e-6 ~ic:[ (out, 1.0) ] n in
        match
          Spice.Transient.crossing_time tr ~node:out ~threshold:0.5 ~direction:`Falling
        with
        | Some t -> check_close ~tol:2e-2 "ln2 us" (log 2.0 *. 1e-6) t
        | None -> Alcotest.fail "no falling crossing");
    case "until stops at the first step it holds, on the full run's prefix" (fun () ->
        let n, out = rc_netlist () in
        let run ?until () = Spice.Transient.run ?until ~t_stop:5e-6 ~ic:[ (out, 0.0) ] n in
        let bits k a = Array.map Int64.bits_of_float (Array.sub a 0 k) in
        let rows k a = Array.to_list (Array.map (bits (Array.length a.(0))) (Array.sub a 0 k)) in
        let full = run () in
        let steps = Array.length full.Spice.Transient.times in
        (* 0.0 holds at step 0; 2.0 is never reached, so that run is whole. *)
        List.iter
          (fun threshold ->
            let cut = run ~until:(fun v -> v.(out) >= threshold) () in
            let k = Array.length cut.Spice.Transient.times in
            let rec first i =
              if i = steps || full.Spice.Transient.voltages.(i).(out) >= threshold then i
              else first (i + 1)
            in
            Alcotest.(check int)
              (Printf.sprintf "ends at the first step >= %g" threshold)
              (min steps (first 0 + 1)) k;
            Alcotest.(check (array int64)) "times"
              (bits k full.Spice.Transient.times) (bits k cut.Spice.Transient.times);
            Alcotest.(check (list (array int64))) "voltages"
              (rows k full.Spice.Transient.voltages) (rows k cut.Spice.Transient.voltages);
            Alcotest.(check (list (array int64))) "source currents"
              (rows k full.Spice.Transient.source_currents)
              (rows k cut.Spice.Transient.source_currents))
          [ 0.0; 0.25; 0.5; 0.9; 2.0 ]);
    case "cross-coupled latch regenerates (sense-amp physics)" (fun () ->
        let sa = Gates.Sense_amp.default ~nfet ~pfet in
        let netlist, a, b = Gate_sim.build_sense_amp sa in
        let vdd = Finfet.Tech.vdd_nominal in
        let tr =
          Spice.Transient.run ~t_stop:60e-12
            ~ic:[ (a, (0.5 *. vdd) +. 0.03); (b, (0.5 *. vdd) -. 0.03) ]
            netlist
        in
        let va = Spice.Transient.node_trace tr a in
        let vb = Spice.Transient.node_trace tr b in
        let last = Array.length va - 1 in
        Alcotest.(check bool) "separated" true (va.(last) -. vb.(last) > 0.8 *. vdd *. 0.9)) ]

let integration_tests =
  let exact t = 1.0 -. exp (-.t /. 1e-6) in
  let err dt =
    let n, out = rc_netlist () in
    let tr = Spice.Transient.run ~dt ~t_stop:3e-6 ~ic:[ (out, 0.0) ] n in
    abs_float (value_at tr ~node:out ~time:2e-6 -. exact 2e-6)
  in
  [ case "backward Euler converges at first order" (fun () ->
        check_within "ratio" ~lo:1.7 ~hi:2.3 (err 2e-8 /. err 1e-8)) ]

let ac_netlist () =
  let n = Spice.Netlist.create () in
  let vin = Spice.Netlist.fresh_node n "vin" in
  let out = Spice.Netlist.fresh_node n "out" in
  Spice.Netlist.vdc n ~plus:vin ~minus:0 ~volts:0.0;
  Spice.Netlist.resistor n ~plus:vin ~minus:out ~ohms:1000.0;
  Spice.Netlist.capacitor n ~plus:out ~minus:0 ~farads:1e-9;
  (n, out)

(* Signed gain at 1 mHz, decades below any corner here: magnitude with
   the sign of the phase's real part. *)
let low_frequency_gain n ~source_index ~output =
  let p = Spice.Ac.at_frequency n ~source_index ~output ~frequency:1e-3 in
  p.Spice.Ac.magnitude *. Float.of_int (compare (cos p.Spice.Ac.phase) 0.0)

let ac_tests =
  [ case "RC low-pass magnitude and phase at the corner" (fun () ->
        let n, out = ac_netlist () in
        let f3db = 1.0 /. (2.0 *. Float.pi *. 1000.0 *. 1e-9) in
        let p = Spice.Ac.at_frequency n ~source_index:0 ~output:out ~frequency:f3db in
        check_close ~tol:1e-3 "mag" (1.0 /. sqrt 2.0) p.Spice.Ac.magnitude;
        check_close ~tol:1e-3 "phase" (-.Float.pi /. 4.0) p.Spice.Ac.phase);
    case "dc gain of the RC is unity" (fun () ->
        let n, out = ac_netlist () in
        check_close ~tol:1e-6 "gain" 1.0 (low_frequency_gain n ~source_index:0 ~output:out));
    case "corner extraction recovers 1/(2 pi R C)" (fun () ->
        let n, out = ac_netlist () in
        let magnitude frequency =
          (Spice.Ac.at_frequency n ~source_index:0 ~output:out ~frequency)
            .Spice.Ac.magnitude
        in
        let f =
          Numerics.Roots.brent
            (fun f -> magnitude f -. (1.0 /. sqrt 2.0))
            ~lo:1e3 ~hi:1e7
        in
        check_close ~tol:2e-2 "f3db" 159154.9 f);
    case "magnitude rolls off monotonically past the corner" (fun () ->
        let n, out = ac_netlist () in
        let points =
          Spice.Ac.sweep n ~source_index:0 ~output:out
            ~f_start:1e6 ~f_stop:1e8
        in
        check_decreasing ~strict:true "rolloff"
          (Array.of_list (List.map (fun p -> p.Spice.Ac.magnitude) points)));
    case "inverter small-signal gain is negative and > 1 in magnitude" (fun () ->
        let lib = Lazy.force Finfet.Library.default in
        let nf = Finfet.Library.nfet lib Finfet.Library.Lvt in
        let pf = Finfet.Library.pfet lib Finfet.Library.Lvt in
        let n = Spice.Netlist.create () in
        let vdd = Spice.Netlist.fresh_node n "vdd" in
        let vin = Spice.Netlist.fresh_node n "vin" in
        let out = Spice.Netlist.fresh_node n "out" in
        Spice.Netlist.vdc n ~plus:vdd ~minus:0 ~volts:0.45;
        Spice.Netlist.vdc n ~plus:vin ~minus:0
          ~volts:(Gates.Sa_offset.trip_point ~nfet:nf ~pfet:pf);
        Spice.Netlist.fet n ~params:pf ~gate:vin ~drain:out ~source:vdd ();
        Spice.Netlist.fet n ~params:nf ~gate:vin ~drain:out ~source:0 ();
        Spice.Netlist.capacitor n ~plus:out ~minus:0 ~farads:1e-16;
        let gain = low_frequency_gain n ~source_index:1 ~output:out in
        Alcotest.(check bool) "inverting" true (gain < -1.5));
    case "bad stimulus or output are rejected" (fun () ->
        let n, out = ac_netlist () in
        Alcotest.(check bool) "source" true
          (try ignore (low_frequency_gain n ~source_index:5 ~output:out); false
           with Invalid_argument _ -> true);
        Alcotest.(check bool) "ground output" true
          (try ignore (low_frequency_gain n ~source_index:0 ~output:0); false
           with Invalid_argument _ -> true)) ]

let deck_tests =
  [ case "engineering suffixes parse" (fun () ->
        let expect v raw =
          match Spice.Deck.parse_value raw with
          | Ok x -> check_close ~tol:1e-9 raw v x
          | Error e -> Alcotest.fail e
        in
        expect 4700.0 "4.7k";
        expect 1e-7 "0.1u";
        expect 3e6 "3meg";
        expect 2e-12 "2p";
        expect 5e-15 "5f";
        expect 1.5e-3 "1.5m";
        expect 2e9 "2g";
        expect 42.0 "42");
    case "bad values are rejected" (fun () ->
        Alcotest.(check bool) "error" true
          (match Spice.Deck.parse_value "fourk" with Error _ -> true | Ok _ -> false));
    case "a divider deck parses and solves" (fun () ->
        let deck = "VIN in 0 DC 1.0\nR1 in mid 1k\nR2 mid 0 3k\n.end\n" in
        match Spice.Deck.parse ~lib deck with
        | Error e -> Alcotest.fail e
        | Ok (n, names) ->
          let mid = Option.get (Spice.Deck.node names "mid") in
          let s = Spice.Dc.operating_point n in
          check_close ~tol:1e-6 "mid" 0.75 (Spice.Dc.node_voltage s mid));
    case "comments, blanks and .end are ignored" (fun () ->
        let deck = "* title\n\nVIN a 0 DC 1\nR1 a 0 1k\n.END\n" in
        Alcotest.(check bool) "parses" true
          (match Spice.Deck.parse ~lib deck with Ok _ -> true | Error _ -> false));
    case "fets parse with models and fins" (fun () ->
        let deck = "VDD vdd 0 DC 0.45\nVG g 0 DC 0.45\nM1 out g 0 nfet_hvt nfin=3\nM2 out g vdd pfet_lvt\n.end\n" in
        match Spice.Deck.parse ~lib deck with
        | Error e -> Alcotest.fail e
        | Ok (n, names) ->
          let out = Option.get (Spice.Deck.node names "out") in
          let s = Spice.Dc.operating_point n in
          (* Gate high: the 3-fin HVT pull-down wins against the LVT load. *)
          Alcotest.(check bool) "pulled low" true (Spice.Dc.node_voltage s out < 0.15));
    case "unknown models are reported with the line" (fun () ->
        match Spice.Deck.parse ~lib "M1 a b 0 bogus_model\n" with
        | Error e ->
          Alcotest.(check bool) "mentions model" true
            (String.length e > 0
             && (let rec has i =
                   i + 5 <= String.length e
                   && (String.sub e i 5 = "bogus" || has (i + 1))
                 in
                 has 0))
        | Ok _ -> Alcotest.fail "expected an error");
    case "pwl sources parse and drive transients" (fun () ->
        let deck = "VIN in 0 PWL(0 0 1n 1.0)\nR1 in out 1k\nC1 out 0 1n\n.end\n" in
        match Spice.Deck.parse ~lib deck with
        | Error e -> Alcotest.fail e
        | Ok (n, names) ->
          let out = Option.get (Spice.Deck.node names "out") in
          let tr = Spice.Transient.run ~t_stop:5e-6 ~ic:[ (out, 0.0) ] n in
          Alcotest.(check bool) "charges" true
            (value_at tr ~node:out ~time:5e-6 > 0.9));
    case "print/parse round trip is electrically identical" (fun () ->
        let n = Spice.Netlist.create () in
        let vdd = Spice.Netlist.fresh_node n "vdd" in
        let inp = Spice.Netlist.fresh_node n "inp" in
        let out = Spice.Netlist.fresh_node n "out" in
        Spice.Netlist.vdc n ~plus:vdd ~minus:0 ~volts:0.45;
        Spice.Netlist.vdc n ~plus:inp ~minus:0 ~volts:0.2;
        Spice.Netlist.fet n ~params:pfet ~gate:inp ~drain:out ~source:vdd ();
        Spice.Netlist.fet n ~params:nfet ~nfin:2 ~gate:inp ~drain:out ~source:0 ();
        Spice.Netlist.resistor n ~plus:out ~minus:0 ~ohms:1e6;
        let original = Spice.Dc.node_voltage (Spice.Dc.operating_point n) out in
        match Spice.Deck.parse ~lib (Spice.Deck.print n) with
        | Error e -> Alcotest.fail e
        | Ok (n2, names) ->
          let out2 = Option.get (Spice.Deck.node names "out") in
          check_close ~tol:1e-6 "same op" original
            (Spice.Dc.node_voltage (Spice.Dc.operating_point n2) out2)) ]

(* ----- the compiled kernel against the list-walking oracle ----- *)

(* A netlist as data, so the oracle's sweep can rebuild it per point. *)
type spec = { nodes : int; elements : Spice.Netlist.element list }

let build ?(swept = fun (_ : int) w -> w) spec =
  let n = Spice.Netlist.create () in
  for i = 1 to spec.nodes do
    ignore (Spice.Netlist.fresh_node n (Printf.sprintf "n%d" i))
  done;
  let k = ref 0 in
  List.iter
    (fun e ->
      Spice.Netlist.add n
        (match e with
         | Spice.Netlist.Vsource v ->
           let volts = swept !k v.volts in
           incr k;
           Spice.Netlist.Vsource { v with volts }
         | e -> e))
    spec.elements;
  n

let fet_params =
  [ nfet; pfet; Finfet.Library.nfet lib Finfet.Library.Hvt;
    Finfet.Library.pfet lib Finfet.Library.Hvt ]

let element_gen ~nodes =
  let open QCheck.Gen in
  let node = int_range 0 nodes in
  frequency
    [ ( 3,
        map3
          (fun plus minus ohms -> Spice.Netlist.Resistor { plus; minus; ohms })
          node node (float_range 1e3 1e6) );
      ( 1,
        map3
          (fun from_node to_node amps -> Spice.Netlist.Isource { from_node; to_node; amps })
          node node (float_range (-2e-6) 2e-6) );
      ( 2,
        map3
          (fun plus minus farads -> Spice.Netlist.Capacitor { plus; minus; farads })
          node node (float_range 1e-16 1e-14) );
      ( 4,
        let* params = oneofl fet_params in
        let* nfin = int_range 1 3 in
        map3
          (fun gate drain source -> Spice.Netlist.Fet { params; nfin; gate; drain; source })
          node node node ) ]

let source_gen ~nodes =
  let open QCheck.Gen in
  let* plus = int_range 1 nodes in
  let* minus = frequency [ (3, return 0); (1, int_range 0 nodes) ] in
  let* v0 = float_range (-0.1) 0.9 in
  let+ volts =
    frequency
      [ (3, return (Spice.Netlist.Const v0));
        ( 1,
          map
            (fun v1 -> Spice.Netlist.Step { t_delay = 1e-12; t_rise = 2e-12; v0; v1 })
            (float_range (-0.1) 0.9) ) ]
  in
  Spice.Netlist.Vsource { plus; minus; volts }

let spec_gen =
  let open QCheck.Gen in
  let* nodes = int_range 2 6 in
  let* sources = list_size (int_range 1 3) (source_gen ~nodes) in
  let* others = list_size (int_range 1 8) (element_gen ~nodes) in
  let+ elements = shuffle_l (sources @ others) in
  { nodes; elements }

(* An RC ladder with FET loads: 79 nodes and 2 sources, 81 unknowns, so
   the solve takes the sparse path. *)
let ladder_gen =
  let open QCheck.Gen in
  let nodes = 79 in
  let* vdd = float_range 0.3 0.8 and* vin = float_range 0.0 0.8 in
  let* rs = list_repeat (nodes - 3) (float_range 1e3 1e5) in
  let+ loads = list_repeat (nodes - 2) (pair (oneofl fet_params) (float_range 1e-16 1e-15)) in
  let chain = List.mapi (fun k ohms -> Spice.Netlist.Resistor { plus = k + 3; minus = k + 4; ohms }) rs in
  let fets =
    List.concat
      (List.mapi
         (fun k (params, farads) ->
           [ Spice.Netlist.Fet { params; nfin = 1; gate = 2; drain = k + 3; source = 0 };
             Spice.Netlist.Capacitor { plus = k + 3; minus = 0; farads } ])
         loads)
  in
  { nodes;
    elements =
      [ Spice.Netlist.Vsource { plus = 1; minus = 0; volts = Spice.Netlist.Const vdd };
        Spice.Netlist.Vsource { plus = 2; minus = 0; volts = Spice.Netlist.Const vin };
        Spice.Netlist.Resistor { plus = 1; minus = 3; ohms = 1e3 } ]
      @ chain @ fets }

let capacitors spec =
  List.length
    (List.filter (function Spice.Netlist.Capacitor _ -> true | _ -> false) spec.elements)

(* Solve options: companions for every capacitor (or none, leaving them
   open), the time sources are read at, a warm start, and the direct
   attempt's iteration cap (the bistable cell's 20, or the default). *)
let case_gen spec_gen =
  let open QCheck.Gen in
  let* spec = spec_gen in
  let dim = spec.nodes + List.length (List.filter (function Spice.Netlist.Vsource _ -> true | _ -> false) spec.elements) in
  let* companions =
    opt
      (array_repeat (capacitors spec)
         (map2
            (fun g_eq v_hist -> { Spice.Dc.g_eq; v_hist })
            (float_range 1e-6 1e-2) (float_range (-0.1) 0.9)))
  in
  let* at_time = float_range 0.0 4e-12 in
  let* x0 = opt (array_repeat dim (float_range (-0.2) 0.9)) in
  let+ direct_iterations = oneofl [ 20; 150 ] in
  (spec, companions, at_time, x0, direct_iterations)

let print_case (spec, companions, at_time, x0, direct_iterations) =
  Printf.sprintf "%s\ncompanions: %b, at_time %g, warm start: %b, direct cap %d"
    (Spice.Deck.print (build spec)) (Option.is_some companions) at_time (Option.is_some x0)
    direct_iterations

let bits = Array.map Int64.bits_of_float

let same_solution (a : Spice.Dc.solution) (b : Spice.Dc.solution) =
  a.Spice.Dc.converged = b.Spice.Dc.converged
  && a.Spice.Dc.iterations = b.Spice.Dc.iterations
  && bits a.Spice.Dc.voltages = bits b.Spice.Dc.voltages
  && bits a.Spice.Dc.source_currents = bits b.Spice.Dc.source_currents

let solve_matches (spec, companions, at_time, x0, direct_iterations) =
  let netlist = build spec in
  let compiled =
    Spice.Dc.solve ?x0 ~at_time ?companions ~direct_iterations (Spice.Dc.compile netlist)
  in
  let oracle =
    match companions with
    | Some companions ->
      Oracle.Dc.operating_point_companioned ?x0 ~direct_iterations ~at_time ~companions
        netlist
    | None -> Oracle.Dc.operating_point ?x0 ~at_time ~direct_iterations netlist
  in
  same_solution compiled oracle

let oracle_tests =
  List.map QCheck_alcotest.to_alcotest
    [ QCheck.Test.make ~count:200
        ~name:"compiled DC solve is bit-identical to the list-walking oracle"
        (QCheck.make ~print:print_case (case_gen spec_gen))
        solve_matches;
      QCheck.Test.make ~count:4
        ~name:"sparse-path DC solve (81 unknowns) is bit-identical to the oracle"
        (QCheck.make ~print:print_case (case_gen ladder_gen))
        solve_matches;
      QCheck.Test.make ~count:50
        ~name:"DC source sweep is bit-identical to rebuilding per point"
        (QCheck.make
           ~print:(fun (spec, _) -> Spice.Deck.print (build spec))
           QCheck.Gen.(pair spec_gen (list_size (int_range 1 6) (float_range (-0.1) 0.9))))
        (fun (spec, points) ->
          let points = Array.of_list points in
          let compiled = Spice.Dc.sweep (build spec) ~source:0 ~points in
          let oracle =
            Oracle.Dc.sweep ~points ~build:(fun p ->
                build spec ~swept:(fun k w -> if k = 0 then Spice.Netlist.Const p else w))
          in
          Array.for_all2 same_solution compiled oracle) ]

let () =
  Alcotest.run "spice"
    [ ("netlist", netlist_tests);
      ("dc", dc_tests);
      ("transient", transient_tests);
      ("integration", integration_tests);
      ("ac", ac_tests);
      ("deck", deck_tests);
      ("oracle", oracle_tests) ]
