type stats = {
  reads : int;
  writes : int;
  idle_cycles : int;
  elapsed : float;
  switching_energy : float;
  leakage_energy : float;
  total_energy : float;
  worst_op_delay : float;
}

type t = {
  env : Array_model.Array_eval.env;
  geometry : Array_model.Geometry.t;
  assist : Array_model.Components.assist;
  metrics : Array_model.Array_eval.metrics;
  word_bits : int;
  words : int;
  contents : int64 array;       (* one word per address *)
  p_leak_total : float;         (* W, whole array *)
  rng : Numerics.Rng.t;         (* address stream for run_trace *)
  mutable s_reads : int;
  mutable s_writes : int;
  mutable s_idles : int;
  mutable s_elapsed : float;
  mutable s_switching : float;
  mutable s_leakage : float;
  mutable s_worst : float;
}

let mask_of_bits bits =
  if bits >= 64 then -1L else Int64.sub (Int64.shift_left 1L bits) 1L

let create ~env ~geometry ~assist () =
  let metrics = Array_model.Array_eval.evaluate env geometry assist in
  let word_bits = min geometry.Array_model.Geometry.w geometry.Array_model.Geometry.nc in
  let words = Array_model.Geometry.capacity_bits geometry / word_bits in
  let rng = Numerics.Rng.create ~seed:2016 in
  let mask = mask_of_bits word_bits in
  (* SRAM powers up to an arbitrary pattern; make it reproducibly so. *)
  let contents =
    Array.init words (fun _ ->
        let hi = Int64.of_int (Numerics.Rng.int_below rng (1 lsl 30)) in
        let lo = Int64.of_int (Numerics.Rng.int_below rng (1 lsl 30)) in
        let mid = Int64.of_int (Numerics.Rng.int_below rng 16) in
        Int64.logand mask
          (Int64.logor
             (Int64.shift_left hi 34)
             (Int64.logor (Int64.shift_left mid 30) lo)))
  in
  let p_leak_total =
    float_of_int (Array_model.Geometry.capacity_bits geometry)
    *. env.Array_model.Array_eval.periphery.Array_model.Periphery.p_leak_cell
  in
  { env; geometry; assist; metrics; word_bits; words; contents; p_leak_total;
    rng;
    s_reads = 0; s_writes = 0; s_idles = 0; s_elapsed = 0.0;
    s_switching = 0.0; s_leakage = 0.0; s_worst = 0.0 }

let create_optimized ~capacity_bits ~flavor ~method_ () =
  let env = Array_model.Array_eval.make_env ~cell_flavor:flavor () in
  let result = Opt.Exhaustive.search ~env ~capacity_bits ~method_ () in
  let best = result.Opt.Exhaustive.best in
  create ~env ~geometry:best.Opt.Exhaustive.geometry
    ~assist:best.Opt.Exhaustive.assist ()

let capacity_bits t = Array_model.Geometry.capacity_bits t.geometry
let word_bits t = t.word_bits
let words t = t.words

type response = {
  data : int64;
  delay : float;
  energy : float;
}

let check_addr t addr =
  if addr < 0 || addr >= t.words then
    invalid_arg
      (Printf.sprintf "Macro: address %d out of range (0..%d)" addr (t.words - 1))

let account t ~delay ~switching =
  let leak = t.p_leak_total *. delay in
  t.s_elapsed <- t.s_elapsed +. delay;
  t.s_switching <- t.s_switching +. switching;
  t.s_leakage <- t.s_leakage +. leak;
  t.s_worst <- max t.s_worst delay;
  switching +. leak

let read t ~addr =
  check_addr t addr;
  let m = t.metrics in
  let delay = m.Array_model.Array_eval.d_read in
  let energy = account t ~delay ~switching:m.Array_model.Array_eval.e_read in
  t.s_reads <- t.s_reads + 1;
  { data = t.contents.(addr); delay; energy }

let write t ~addr ~data =
  check_addr t addr;
  let m = t.metrics in
  let masked = Int64.logand data (mask_of_bits t.word_bits) in
  t.contents.(addr) <- masked;
  let delay = m.Array_model.Array_eval.d_write in
  let energy = account t ~delay ~switching:m.Array_model.Array_eval.e_write in
  t.s_writes <- t.s_writes + 1;
  { data = masked; delay; energy }

let idle t =
  let delay = t.metrics.Array_model.Array_eval.d_array in
  ignore (account t ~delay ~switching:0.0);
  t.s_idles <- t.s_idles + 1

let stats t =
  { reads = t.s_reads;
    writes = t.s_writes;
    idle_cycles = t.s_idles;
    elapsed = t.s_elapsed;
    switching_energy = t.s_switching;
    leakage_energy = t.s_leakage;
    total_energy = t.s_switching +. t.s_leakage;
    worst_op_delay = t.s_worst }

let reset_stats t =
  t.s_reads <- 0;
  t.s_writes <- 0;
  t.s_idles <- 0;
  t.s_elapsed <- 0.0;
  t.s_switching <- 0.0;
  t.s_leakage <- 0.0;
  t.s_worst <- 0.0

let run_trace t trace =
  reset_stats t;
  Array.iter
    (fun op ->
      match op with
      | Workload.Trace.Idle -> idle t
      | Workload.Trace.Read ->
        ignore (read t ~addr:(Numerics.Rng.int_below t.rng t.words))
      | Workload.Trace.Write ->
        let addr = Numerics.Rng.int_below t.rng t.words in
        let data = Int64.of_int (Numerics.Rng.int_below t.rng (1 lsl 30)) in
        ignore (write t ~addr ~data))
    trace;
  stats t
