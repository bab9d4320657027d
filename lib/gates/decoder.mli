(** Row / column address decoders.

    Structure (the classic predecoded design [Kang-Leblebici]): address
    buffers feed 2-bit predecoders (NAND2 + INV); one final NAND per output
    row combines ceil(bits/2) predecoded lines and drives the word-line
    superbuffer.  The paper abstracts this block as LUTs
    D_dec(log n) / E_dec(log n); {!characterize} generates those tables. *)

type result = { delay : float; energy : float }

val characterize :
  nfet:Finfet.Device.params ->
  pfet:Finfet.Device.params ->
  max_bits:int ->
  c_out:float ->
  result array
(** [characterize ~max_bits ~c_out] tabulates, for [bits] = 0..max_bits,
    the delay of the critical path through a [bits]-address decoder whose
    output drives [c_out] (the superbuffer input), and the switching
    energy of one decode operation (one output toggles; predecode lines
    fan out to a quarter of the 2^bits final gates).  [bits = 0] gives
    zeros (a 1-row / 1-word-select structure needs no decoder).  This is
    the LUT the array model consumes. *)
