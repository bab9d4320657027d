type t = float Atomic.t

let create () = Atomic.make infinity

let get = Atomic.get

let rec publish_improved t x =
  let cur = Atomic.get t in
  if x < cur then
    Atomic.compare_and_set t cur x || publish_improved t x
  else false

let publish t x = ignore (publish_improved t x)
