val print : Spice.Netlist.t -> string
(** Render a netlist as a deck (element names are generated; node names
    come from the netlist's own naming).  [Spice.Deck.parse] of the result
    builds an electrically identical circuit: the round-trip property the
    spice and property tests check. *)
