(* Netlist -> deck text, the inverse of [Spice.Deck.parse] that the
   round-trip tests and the QCheck printers use. *)

let canonical_model params =
  (* Map back to the deck's model vocabulary via the polarity + name. *)
  let name = String.lowercase_ascii params.Finfet.Device.name in
  let has sub =
    let n = String.length sub and h = String.length name in
    let rec go i = i + n <= h && (String.sub name i n = sub || go (i + 1)) in
    go 0
  in
  match (params.Finfet.Device.polarity, has "hvt") with
  | Finfet.Device.Nfet, true -> "nfet_hvt"
  | Finfet.Device.Nfet, false -> "nfet_lvt"
  | Finfet.Device.Pfet, true -> "pfet_hvt"
  | Finfet.Device.Pfet, false -> "pfet_lvt"

let print netlist =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "* generated by Deck_print.print\n";
  let name node = if node = 0 then "0" else Spice.Netlist.node_name netlist node in
  let counter = ref 0 in
  let fresh prefix =
    incr counter;
    Printf.sprintf "%s%d" prefix !counter
  in
  List.iter
    (fun element ->
      let line =
        match element with
        | Spice.Netlist.Resistor { plus; minus; ohms } ->
          Printf.sprintf "%s %s %s %.9g" (fresh "R") (name plus) (name minus) ohms
        | Spice.Netlist.Capacitor { plus; minus; farads } ->
          Printf.sprintf "%s %s %s %.9g" (fresh "C") (name plus) (name minus) farads
        | Spice.Netlist.Vsource { plus; minus; volts = Spice.Netlist.Const v } ->
          Printf.sprintf "%s %s %s DC %.9g" (fresh "V") (name plus) (name minus) v
        | Spice.Netlist.Vsource { plus; minus; volts = Spice.Netlist.Pwl corners } ->
          Printf.sprintf "%s %s %s PWL(%s)" (fresh "V") (name plus) (name minus)
            (String.concat " "
               (List.concat_map
                  (fun (t, v) -> [ Printf.sprintf "%.9g" t; Printf.sprintf "%.9g" v ])
                  corners))
        | Spice.Netlist.Vsource
            { plus; minus; volts = Spice.Netlist.Step { t_delay; t_rise; v0; v1 } } ->
          (* Steps print as the equivalent PWL. *)
          Printf.sprintf "%s %s %s PWL(0 %.9g %.9g %.9g %.9g %.9g)" (fresh "V")
            (name plus) (name minus) v0 t_delay v0 (t_delay +. max t_rise 1e-15) v1
        | Spice.Netlist.Isource { from_node; to_node; amps } ->
          Printf.sprintf "%s %s %s DC %.9g" (fresh "I") (name from_node)
            (name to_node) amps
        | Spice.Netlist.Fet { params; nfin; gate; drain; source } ->
          Printf.sprintf "%s %s %s %s %s nfin=%d" (fresh "M") (name drain)
            (name gate) (name source) (canonical_model params) nfin
      in
      Buffer.add_string buf line;
      Buffer.add_char buf '\n')
    (Spice.Netlist.elements netlist);
  Buffer.add_string buf ".end\n";
  Buffer.contents buf
