let hold_snm ?points ~cell vdd =
  Butterfly.hold_snm ?points ~cell (Sram6t.hold ~vdd ())

let read_snm ?points ~cell condition = Butterfly.read_snm ?points ~cell condition

let butterfly_fallbacks = Runtime.Telemetry.counter "margins.butterfly_fallbacks"

let flips_at_vwl ~cell condition ~vwl =
  let condition = { condition with Sram6t.vwl } in
  (* Start from the lobe holding '1' on Q; if the DC solution lands with Q
     below QB, the access transistor has overpowered the feedback and the
     write succeeded. *)
  match Sram6t.solve_state ~q_init:condition.Sram6t.vddc ~cell condition with
  | Sram6t.Settled (q, qb) -> q < qb
  | Sram6t.Unsettled ->
    (* The write-mode butterfly's half-cells are monostable, so their
       sweeps settle: the '1' state survives exactly while its lobe (Q
       high, QB low: the lower-right eye) is open. *)
    Runtime.Telemetry.incr butterfly_fallbacks;
    let b = Butterfly.trace ~cell ~access_on:true condition in
    (Butterfly.snm_of_butterfly b).Butterfly.lobe_low <= 0.0

let minimum_flipping_vwl ~cell condition =
  let hi = condition.Sram6t.vdd +. 0.4 in
  if not (flips_at_vwl ~cell condition ~vwl:hi) then hi
  else if flips_at_vwl ~cell condition ~vwl:0.0 then 0.0
  else begin
    (* Bisection on the flip predicate: invariant lo never flips, hi
       always does (the access strength is monotone in V_WL). *)
    let rec bisect lo hi =
      if hi -. lo < 1e-3 then hi
      else begin
        let mid = 0.5 *. (lo +. hi) in
        if flips_at_vwl ~cell condition ~vwl:mid then bisect lo mid
        else bisect mid hi
      end
    in
    bisect 0.0 hi
  end

let write_margin ~cell condition =
  condition.Sram6t.vwl -. minimum_flipping_vwl ~cell condition
