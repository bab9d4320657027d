let ps x = Printf.sprintf "%.1f ps" (x *. 1e12)
let fj x = Printf.sprintf "%.2f fJ" (x *. 1e15)
let nw x = Printf.sprintf "%.3f nW" (x *. 1e9)
let mv x = Printf.sprintf "%.0f mV" (x *. 1e3)
let ua x = Printf.sprintf "%.2f uA" (x *. 1e6)

let si x =
  if x = 0.0 then "0"
  else begin
    let prefixes =
      [ (1e-15, "f"); (1e-12, "p"); (1e-9, "n"); (1e-6, "u"); (1e-3, "m");
        (1.0, ""); (1e3, "k"); (1e6, "M"); (1e9, "G") ]
    in
    let mag = abs_float x in
    let scale, prefix =
      List.fold_left
        (fun (bs, bp) (s, p) -> if mag >= s then (s, p) else (bs, bp))
        (1e-15, "f") prefixes
    in
    Printf.sprintf "%.3g%s" (x /. scale) prefix
  end

let capacity bits =
  let bytes = bits / 8 in
  if bytes >= 1024 && bytes mod 1024 = 0 then Printf.sprintf "%dKB" (bytes / 1024)
  else Printf.sprintf "%dB" bytes

let percent r = Printf.sprintf "%+.1f%%" (r *. 100.0)
