type t = {
  nr : int;
  nc : int;
  w : int;
  n_pre : int;
  n_wr : int;
}

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let create ~nr ~nc ?(w = 64) ~n_pre ~n_wr () =
  if not (is_power_of_two nr) then invalid_arg "Geometry.create: nr not a power of two";
  if not (is_power_of_two nc) then invalid_arg "Geometry.create: nc not a power of two";
  if not (is_power_of_two w) then invalid_arg "Geometry.create: w not a power of two";
  if n_pre <= 0 || n_wr <= 0 then invalid_arg "Geometry.create: fin counts must be positive";
  { nr; nc; w; n_pre; n_wr }

let capacity_bits t = t.nr * t.nc

let log2_exact n =
  let rec go acc n = if n = 1 then acc else go (acc + 1) (n / 2) in
  go 0 n

let row_address_bits t = log2_exact t.nr

let column_address_bits t = if t.nc <= t.w then 0 else log2_exact (t.nc / t.w)

let has_column_mux t = t.nc > t.w

let area t =
  float_of_int t.nc *. Finfet.Tech.cell_width
  *. (float_of_int t.nr *. Finfet.Tech.cell_height)

let aspect_ratio t =
  float_of_int t.nc *. Finfet.Tech.cell_width
  /. (float_of_int t.nr *. Finfet.Tech.cell_height)

let pp ppf t =
  Format.fprintf ppf "%dx%d (w=%d, n_pre=%d, n_wr=%d)" t.nr t.nc t.w t.n_pre t.n_wr
