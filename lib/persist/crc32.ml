(* IEEE CRC-32 (reflected, polynomial 0xEDB88320), slicing-by-8.

   Pure OCaml so the record log carries no external dependency; ints
   are 63-bit on every platform we build for, so a land with 0xFFFFFFFF
   keeps values in the unsigned 32-bit range.

   Table k (one flat array, k * 256 + byte) maps a byte to its CRC
   contribution when k more zero bytes follow it, so eight bytes fold
   into the running value with eight independent lookups instead of a
   chain of eight dependent ones (Kounavis and Berry, "A systematic
   approach to building high performance software-based CRC
   generators", ISCC 2005).  Table 0 is the classic bytewise table,
   which finishes the last len mod 8 bytes.  The result is the same
   function the bytewise loop computes; test/util keeps that loop as
   the oracle. *)

let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      if !c land 1 = 1 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

let byte s i = Char.code (String.unsafe_get s i)

let update crc s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Crc32.update: range outside the string";
  let t = tables in
  let c = ref ((crc land 0xFFFFFFFF) lxor 0xFFFFFFFF) in
  let i = ref pos in
  let blocks_end = pos + (len land lnot 7) in
  while !i < blocks_end do
    let j = !i in
    let lo =
      !c lxor (byte s j lor (byte s (j + 1) lsl 8) lor (byte s (j + 2) lsl 16)
              lor (byte s (j + 3) lsl 24))
    in
    c :=
      Array.unsafe_get t ((7 * 256) + (lo land 0xFF))
      lxor Array.unsafe_get t ((6 * 256) + ((lo lsr 8) land 0xFF))
      lxor Array.unsafe_get t ((5 * 256) + ((lo lsr 16) land 0xFF))
      lxor Array.unsafe_get t ((4 * 256) + (lo lsr 24))
      lxor Array.unsafe_get t ((3 * 256) + byte s (j + 4))
      lxor Array.unsafe_get t ((2 * 256) + byte s (j + 5))
      lxor Array.unsafe_get t (256 + byte s (j + 6))
      lxor Array.unsafe_get t (byte s (j + 7));
    i := j + 8
  done;
  for j = blocks_end to pos + len - 1 do
    c := Array.unsafe_get t ((!c lxor byte s j) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let string s = update 0 s 0 (String.length s)
