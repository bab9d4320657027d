(** Text netlists: a SPICE-deck subset, parsed.

    Interop with the rest of the CAD world happens through decks, so the
    simulator reads one:

    {v
    * comment
    R1   in out 1k
    C1   out 0  1n
    VDD  vdd 0  DC 0.45
    VIN  in  0  PWL(0 0 1n 0.45)
    M1   out in 0 nfet_lvt nfin=2
    .end
    v}

    - Node names are free-form; [0], [gnd] and [GND] are ground.
    - Values accept engineering suffixes
      (f p n u m k meg g, case-insensitive).
    - FET model names are [nfet_lvt | nfet_hvt | pfet_lvt | pfet_hvt],
      resolved against a {!Finfet.Library.t}; terminal order is
      drain gate source.
    - Voltage sources take [DC v] or [PWL(t1 v1 t2 v2 ...)];
      current sources take [DC v] ([from] = +, [to] = -). *)

type bindings = (string * Netlist.node) list
(** Name-to-node mapping produced by the parser (excludes ground). *)

val parse_value : string -> (float, string) result
(** "4.7k" -> 4700.0; "0.1u" -> 1e-7; "3meg" -> 3e6. *)

val parse :
  lib:Finfet.Library.t -> string -> (Netlist.t * bindings, string) result
(** Parse a whole deck.  Errors carry the offending line. *)

val node : bindings -> string -> Netlist.node option
(** Look up a parsed node by its deck name (ground resolves to
    [Netlist.ground]). *)
