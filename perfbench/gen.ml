(* Seeded request streams, one per workload.  The workload seed is a
   benchmark argument; sram_opt only ever sees the generated requests. *)

module P = Serve.Protocol
module F = Sram_edp.Framework

type workload = Oneshot_cold | Oneshot_cachedir | Served_novel

let workloads =
  [ ("oneshot-cold", Oneshot_cold);
    ("oneshot-cachedir", Oneshot_cachedir);
    ("served-novel", Served_novel) ]

let name w = fst (List.find (fun (_, w') -> w' = w) workloads)
let of_name s = List.assoc_opt s workloads

let query ?(flavor = Finfet.Library.Hvt) ?(method_ = Opt.Space.M2)
    ?(strategy = Opt.Strategy.Exhaustive) ?(rng_seed = Opt.Strategy.default_seed)
    ?(objective = Opt.Objective.Energy_delay_product)
    ?(accounting = Array_model.Array_eval.Paper_strict) ?(space = P.no_override)
    capacity_bits =
  { P.default_query with
    P.capacity_bits; flavor; method_; strategy; rng_seed; objective;
    accounting; space }

(* The paper's Table 4: five capacities x LVT/HVT x M1/M2, in the
   order whose winner checksum the repository pins. *)
let table4 =
  List.concat_map
    (fun cap ->
      List.map
        (fun (c : F.config) -> query ~flavor:c.F.flavor ~method_:c.F.method_ cap)
        F.all_configs)
    F.paper_capacities

let table4_checksum = "67fd83cd67998ac0"

(* 128 B to 64 KB, in bits. *)
let capacities = List.init 10 (fun i -> 8 * (128 lsl i))

(* The memo key of a query: the framework ignores the seed of a
   deterministic engine, so two such queries that differ only in their
   seed are one key. *)
let key (q : P.query) =
  let q =
    if Opt.Strategy.deterministic q.P.strategy then
      { q with P.rng_seed = Opt.Strategy.default_seed }
    else q
  in
  Persist.Json.to_string
    (P.request_to_json
       { P.id = 0; deadline_ms = None; trace_id = None; endpoint = P.Optimize q })

(* The sram_opt command line of a one-shot query.  The CLI has no
   objective, width or space flags, so one-shot streams keep those at
   their defaults. *)
let cli_args (q : P.query) =
  if
    q.P.objective <> P.default_query.P.objective
    || q.P.w <> P.default_query.P.w
    || q.P.space <> P.no_override
  then invalid_arg "Gen.cli_args: the CLI cannot express this query";
  [ "optimize";
    "-c"; Printf.sprintf "%dB" (q.P.capacity_bits / 8);
    "-f"; String.lowercase_ascii (Finfet.Library.flavor_to_string q.P.flavor);
    "-m";
    Printf.sprintf "%s:%s"
      (String.lowercase_ascii (Opt.Space.method_name q.P.method_))
      (Opt.Strategy.name q.P.strategy);
    "--accounting";
    (match q.P.accounting with
     | Array_model.Array_eval.Paper_strict -> "strict"
     | Array_model.Array_eval.Physical -> "physical");
    "--seed"; string_of_int q.P.rng_seed;
    "--jobs"; "1";
    "--json" ]

type stream = {
  setup : P.query list;  (** the untimed queries of one setup *)
  next : unit -> P.query;  (** the timed queries, in order *)
}

let pick rng a = a.(Random.State.int rng (Array.length a))

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Every element once per cycle, each cycle in a fresh seeded order, so
   two runs of the same length send the same mix whatever their seeds. *)
let cycle rng points =
  let order = ref [||] and pos = ref 0 in
  fun () ->
    if !pos = Array.length !order then begin
      order := shuffle rng points;
      pos := 0
    end;
    let x = !order.(!pos) in
    incr pos;
    x

(* Redraw until the key is new to the run, setup keys included: a timed
   request that repeats an earlier key would be an accidental memo hit. *)
let distinct ~setup draw =
  let seen = Hashtbl.create 1024 in
  List.iter (fun q -> Hashtbl.replace seen (key q) ()) setup;
  fun () ->
    let rec go () =
      let q = draw () in
      let k = key q in
      if Hashtbl.mem seen k then go ()
      else begin
        Hashtbl.replace seen k ();
        q
      end
    in
    go ()

let caps = Array.of_list capacities
let methods = [| Opt.Space.M1; Opt.Space.M2 |]
let flavors = [| Finfet.Library.Lvt; Finfet.Library.Hvt |]

let accountings =
  [| Array_model.Array_eval.Paper_strict; Array_model.Array_eval.Physical |]

let objectives =
  [| Opt.Objective.Energy_delay_product; Opt.Objective.Energy_delay_squared;
     Opt.Objective.Energy_only; Opt.Objective.Delay_only |]

let stream workload ~seed =
  let rng = Random.State.make [| seed; Hashtbl.hash (name workload) |] in
  match workload with
  | Oneshot_cold ->
    (* The ten HVT Table 4 points, each cycle in a fresh seeded order.
       HVT only: LVT requests cost less, and a mix would put p50 on the
       boundary between two modes. *)
    let points =
      Array.of_list
        (List.filter (fun q -> q.P.flavor = Finfet.Library.Hvt) table4)
    in
    { setup = [ query ~flavor:Finfet.Library.Lvt (8 * 1024) ]; next = cycle rng points }
  | Oneshot_cachedir ->
    (* The setup writes the HVT yield pins (and one exhaustive result).
       Every timed request is an HVT NSGA-II key with its own seed, so
       none is on disk yet; capacity, method and accounting cycle through
       all their combinations, so a seed changes the order, not the mix. *)
    let setup = [ query (8 * 1024) ] in
    let shapes =
      Array.of_list
        (List.concat_map
           (fun capacity ->
             List.concat_map
               (fun method_ ->
                 List.map (fun accounting -> (capacity, method_, accounting))
                   (Array.to_list accountings))
               (Array.to_list methods))
           capacities)
    in
    let shape = cycle rng shapes in
    let draw () =
      let capacity, method_, accounting = shape () in
      let rng_seed = Random.State.bits rng in
      query ~method_ ~accounting ~strategy:Opt.Strategy.Nsga2 ~rng_seed capacity
    in
    { setup; next = distinct ~setup draw }
  | Served_novel ->
    (* Setup: one default query per (capacity, flavor, accounting), which
       warms characterization and staging.  Timed: exhaustive queries
       over a strict contiguous sub-range of the default V_SSC grid, so
       every key differs from the setup's and from each other. *)
    let setup =
      List.concat_map
        (fun capacity ->
          List.concat_map
            (fun flavor ->
              List.map
                (fun accounting -> query ~flavor ~accounting capacity)
                (Array.to_list accountings))
            (Array.to_list flavors))
        capacities
    in
    let grid = Opt.Space.default.Opt.Space.vssc_values in
    let n = Array.length grid in
    let draw () =
      let capacity = pick rng caps in
      let flavor = pick rng flavors in
      let method_ = pick rng methods in
      let objective = pick rng objectives in
      let accounting = pick rng accountings in
      let len = 2 + Random.State.int rng (n - 2) in
      let lo = Random.State.int rng (n - len + 1) in
      let space = { P.no_override with P.vssc = Some (Array.sub grid lo len) } in
      query ~flavor ~method_ ~objective ~accounting ~space capacity
    in
    { setup; next = distinct ~setup draw }

let take stream n =
  let rec go acc k = if k = 0 then List.rev acc else go (stream.next () :: acc) (k - 1) in
  go [] n
