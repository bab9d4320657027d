type method_ = M1 | M2

let method_name = function M1 -> "M1" | M2 -> "M2"

type t = {
  vssc_values : float array;
  nr_values : int array;
  n_pre_values : int array;
  n_wr_values : int array;
}

let default =
  { vssc_values = Array.init 25 (fun i -> -0.010 *. float_of_int i);
    nr_values = Array.init 10 (fun i -> 1 lsl (i + 1));
    n_pre_values = Array.init 50 (fun i -> i + 1);
    n_wr_values = Array.init 20 (fun i -> i + 1) }

let reduced =
  { vssc_values = Array.init 9 (fun i -> -0.030 *. float_of_int i);
    nr_values = Array.init 10 (fun i -> 1 lsl (i + 1));
    n_pre_values = [| 1; 2; 3; 4; 6; 8; 12; 16; 24; 32; 40; 50 |];
    n_wr_values = [| 1; 2; 3; 4; 6; 8; 12; 16; 20 |] }

let merge_threshold = 0.020

type field = Capacity_bits | W | Vssc_values | Nr_values | N_pre_values | N_wr_values

let ( let* ) = Result.bind
let is_power_of_two = Array_model.Geometry.is_power_of_two
let max_bits = Array_model.Periphery.max_address_bits

(* The span of the default V_SSC grid, whose top is -0.0: folding from
   +0.0 prints the bound as 0. *)
let vssc_lo = Array.fold_left Float.min 0.0 default.vssc_values
let vssc_hi = Array.fold_left Float.max 0.0 default.vssc_values

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2)

(* Non-empty, bounded, every value [valid] (else it breaks [rule]), and
   each value strictly [after] its predecessor. *)
let check_axis field values ~valid ~rule ~after ~order ~show =
  let fail fmt = Printf.ksprintf (fun why -> Error (field, why)) fmt in
  let n = Array.length values in
  if n = 0 then fail "empty"
  else if n > 256 then fail "%d values, at most 256" n
  else
    match Array.find_opt (fun v -> not (valid v)) values with
    | Some v -> fail "%s %s" (show v) rule
    | None ->
      let rec sorted i =
        if i = n then Ok ()
        else if after values.(i) values.(i - 1) then sorted (i + 1)
        else fail "not strictly %s at %s" order (show values.(i))
      in
      sorted 1

(* About 20x the default axes' largest fin count (50).  Near [max_int]
   the [n_pre + 1] in [Caps.bl] wraps, and a negative bitline
   capacitance prices negative energies. *)
let max_fins = 1024

(* 6.5x the default's 10,000 geometries: a staged grid of this size is
   ~11.5 MB, and the context keeps four. *)
let max_geometries = 65_536

let check_fins field values =
  check_axis field values
    ~valid:(fun n -> n >= 1 && n <= max_fins)
    ~rule:(Printf.sprintf "fins, outside 1..%d" max_fins)
    ~after:( > ) ~order:"increasing" ~show:string_of_int

(* Column address bits of the widest candidate: n_c = M / n_r at the
   smallest n_r. *)
let column_bits ~w ~capacity_bits ~nr_min =
  let nc = capacity_bits / nr_min in
  if nc <= w then 0 else log2 (nc / w)

let check ~w ~capacity_bits space =
  let fail field fmt = Printf.ksprintf (fun why -> Error (field, why)) fmt in
  let* () =
    if is_power_of_two capacity_bits then Ok ()
    else fail Capacity_bits "%d bits is not a positive power of two" capacity_bits
  in
  let* () =
    if is_power_of_two w then Ok () else fail W "%d is not a positive power of two" w
  in
  let* () =
    check_axis Vssc_values space.vssc_values
      ~valid:(fun v -> v >= vssc_lo && v <= vssc_hi)
      ~rule:(Printf.sprintf "is outside the negative-Gnd range [%g, %g] V" vssc_lo vssc_hi)
      ~after:( < ) ~order:"decreasing" ~show:(Printf.sprintf "%g V")
  in
  let* () =
    check_axis Nr_values space.nr_values ~valid:is_power_of_two
      ~rule:"is not a power of two" ~after:( > ) ~order:"increasing" ~show:string_of_int
  in
  let* () = check_fins N_pre_values space.n_pre_values in
  let* () = check_fins N_wr_values space.n_wr_values in
  let nr_min = space.nr_values.(0) in
  let* () =
    if nr_min <= capacity_bits then Ok ()
    else
      fail Capacity_bits "%d bits holds no candidate geometry: the smallest n_r is %d"
        capacity_bits nr_min
  in
  let nr_max =
    Array.fold_left (fun acc nr -> if nr <= capacity_bits then nr else acc) nr_min
      space.nr_values
  in
  let* () =
    if log2 nr_max <= max_bits then Ok ()
    else
      fail Nr_values "n_r = %d needs %d row address bits, past the decoders' %d" nr_max
        (log2 nr_max) max_bits
  in
  let bits = column_bits ~w ~capacity_bits ~nr_min in
  let* () =
    if bits <= max_bits then Ok ()
    else
      fail
        (if column_bits ~w:64 ~capacity_bits ~nr_min <= max_bits then W else Capacity_bits)
        "%d bits needs %d column address bits at w = %d and n_r = %d, past the decoders' %d"
        capacity_bits bits w nr_min max_bits
  in
  (* Every n_r up to the capacity gives one row count, so the grid's
     size is a product of axis lengths; the longer fin axis takes the
     blame. *)
  let rows =
    Array.fold_left
      (fun acc nr -> if nr <= capacity_bits then acc + 1 else acc)
      0 space.nr_values
  in
  let n_pre = Array.length space.n_pre_values
  and n_wr = Array.length space.n_wr_values in
  let geometries = rows * n_pre * n_wr in
  if geometries <= max_geometries then Ok ()
  else
    fail
      (if n_pre >= n_wr then N_pre_values else N_wr_values)
      "%d n_r x %d N_pre x %d N_wr values make %d geometries, at most %d"
      rows n_pre n_wr geometries max_geometries

type pins = {
  vddc : float;
  vwl : float;
  vssc_allowed : bool;
  extra_levels : int;
}

let pins_for method_ (levels : Yield.levels) =
  let open Yield in
  match method_ with
  | M1 ->
    let v = max levels.vddc_min levels.vwl_min in
    { vddc = v; vwl = v; vssc_allowed = false; extra_levels = 1 }
  | M2 ->
    if abs_float (levels.vddc_min -. levels.vwl_min) <= merge_threshold then begin
      let v = max levels.vddc_min levels.vwl_min in
      { vddc = v; vwl = v; vssc_allowed = true; extra_levels = 2 }
    end
    else
      { vddc = levels.vddc_min; vwl = levels.vwl_min; vssc_allowed = true;
        extra_levels = 3 }

let assist_of pins ~vssc =
  { Array_model.Components.vddc = pins.vddc;
    vssc = (if pins.vssc_allowed then vssc else 0.0);
    vwl = pins.vwl }

(* An n_r the capacity can hold: n_c = M / n_r is a power of two. *)
let fits ~capacity_bits nr =
  nr <= capacity_bits && is_power_of_two (capacity_bits / nr)

type scan_setup = {
  levels : Yield.levels;
  pins : pins;
  vssc_axis : float array;
  assists : Array_model.Components.assist array;
  rows : int array;
}

let scan_setup ?levels ~flavor ~capacity_bits method_ space =
  if not (is_power_of_two capacity_bits) then
    invalid_arg "Space.scan_setup: capacity must be a power of two";
  let rows =
    Array.of_list
      (List.filter (fits ~capacity_bits) (Array.to_list space.nr_values))
  in
  if rows = [||] then invalid_arg "Space.scan_setup: empty geometry space";
  let levels = match levels with Some l -> l | None -> Yield.solve ~flavor () in
  let pins = pins_for method_ levels in
  let vssc_axis = if pins.vssc_allowed then space.vssc_values else [| 0.0 |] in
  let assists = Array.map (fun vssc -> assist_of pins ~vssc) vssc_axis in
  { levels; pins; vssc_axis; assists; rows }

let candidate_geometries ?(w = 64) space ~capacity_bits =
  assert (Array_model.Geometry.is_power_of_two capacity_bits);
  let geoms = ref [] in
  Array.iter
    (fun nr ->
      if fits ~capacity_bits nr then
        Array.iter
          (fun n_pre ->
            Array.iter
              (fun n_wr ->
                geoms :=
                  Array_model.Geometry.create ~nr ~nc:(capacity_bits / nr) ~w
                    ~n_pre ~n_wr ()
                  :: !geoms)
              space.n_wr_values)
          space.n_pre_values)
    space.nr_values;
  List.rev !geoms

let size ?w space ~capacity_bits method_ =
  let geoms = List.length (candidate_geometries ?w space ~capacity_bits) in
  let vssc = match method_ with M1 -> 1 | M2 -> Array.length space.vssc_values in
  geoms * vssc
