type ('k, 'v) node = {
  key : 'k;
  value : 'v;
  mutable prev : ('k, 'v) node option;  (* toward most recent *)
  mutable next : ('k, 'v) node option;  (* toward least recent *)
}

type ('k, 'v) t = {
  name : string;
  capacity : int;
  table : ('k, ('k, 'v) node) Hashtbl.t;
  mutable first : ('k, 'v) node option;  (* most recently used *)
  mutable last : ('k, 'v) node option;   (* least recently used *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  lock : Mutex.t;
}

type stats = {
  name : string;
  capacity : int;
  length : int;
  hits : int;
  misses : int;
  evictions : int;
}

let registry_lock = Mutex.create ()
let registry : (unit -> stats) list ref = ref []
let resetters : (unit -> unit) list ref = ref []

let unlink t node =
  (match node.prev with
   | Some p -> p.next <- node.next
   | None -> t.first <- node.next);
  (match node.next with
   | Some n -> n.prev <- node.prev
   | None -> t.last <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.next <- t.first;
  (match t.first with
   | Some f -> f.prev <- Some node
   | None -> t.last <- Some node);
  t.first <- Some node

let stats_locked (t : (_, _) t) =
  { name = t.name;
    capacity = t.capacity;
    length = Hashtbl.length t.table;
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions }

let stats t =
  Mutex.lock t.lock;
  let s = stats_locked t in
  Mutex.unlock t.lock;
  s

let reset t =
  Mutex.lock t.lock;
  Hashtbl.reset t.table;
  t.first <- None;
  t.last <- None;
  t.hits <- 0;
  t.misses <- 0;
  t.evictions <- 0;
  Mutex.unlock t.lock

let create ?(name = "memo") ~capacity () =
  if capacity < 1 then invalid_arg "Memo.create: capacity must be >= 1";
  let t =
    { name;
      capacity;
      table = Hashtbl.create (min capacity 64);
      first = None;
      last = None;
      hits = 0;
      misses = 0;
      evictions = 0;
      lock = Mutex.create () }
  in
  Mutex.lock registry_lock;
  registry := (fun () -> stats t) :: !registry;
  resetters := (fun () -> reset t) :: !resetters;
  Mutex.unlock registry_lock;
  t

(* One shared latency histogram across every memo: lookups contend on
   the same kind of lock + hashtable work, and a single site keeps the
   [--stats] table compact.  Sampled 1-in-16 per domain. *)
let lookup_hist = Obs.Histogram.create ~sample:16 "memo.lookup"

let find_opt t k =
  let sampled = Obs.Histogram.tick lookup_hist in
  let t0 = if sampled then Obs.Clock.now () else 0.0 in
  Mutex.lock t.lock;
  let v =
    match Hashtbl.find_opt t.table k with
    | Some node ->
      t.hits <- t.hits + 1;
      unlink t node;
      push_front t node;
      Some node.value
    | None ->
      t.misses <- t.misses + 1;
      None
  in
  Mutex.unlock t.lock;
  if sampled then Obs.Histogram.observe lookup_hist (Obs.Clock.now () -. t0);
  v

let add t k v =
  Mutex.lock t.lock;
  (match Hashtbl.find_opt t.table k with
   | Some old ->
     unlink t old;
     Hashtbl.remove t.table k
   | None -> ());
  let node = { key = k; value = v; prev = None; next = None } in
  Hashtbl.replace t.table k node;
  push_front t node;
  if Hashtbl.length t.table > t.capacity then begin
    match t.last with
    | Some lru ->
      unlink t lru;
      Hashtbl.remove t.table lru.key;
      t.evictions <- t.evictions + 1
    | None -> ()
  end;
  Mutex.unlock t.lock

let find_or_compute t k f =
  match find_opt t k with
  | Some v -> v
  | None ->
    let v = f () in
    add t k v;
    v

let find_or_compute_tiered t k ~load ~store f =
  match find_opt t k with
  | Some v -> v
  | None -> (
    match load k with
    | Some v ->
      add t k v;
      v
    | None ->
      let v = f () in
      add t k v;
      store k v;
      v)

let hit_rate (s : stats) =
  let total = s.hits + s.misses in
  if total = 0 then 0.0 else float_of_int s.hits /. float_of_int total

let occupancy (s : stats) = float_of_int s.length /. float_of_int s.capacity

let registered_stats () =
  Mutex.lock registry_lock;
  let fs = List.rev !registry in
  Mutex.unlock registry_lock;
  List.map (fun f -> f ()) fs

let reset_all () =
  Mutex.lock registry_lock;
  let fs = !resetters in
  Mutex.unlock registry_lock;
  List.iter (fun f -> f ()) fs

let print_stats () =
  let rows = registered_stats () in
  Printf.printf "%-28s %9s %6s %9s %9s %9s %8s\n" "memo" "size"
    "occup" "hits" "misses" "evicted" "hit rate";
  List.iter
    (fun (s : stats) ->
      Printf.printf "%-28s %4d/%-4d %5.0f%% %9d %9d %9d %7.1f%%\n"
        s.name s.length s.capacity
        (100.0 *. occupancy s)
        s.hits s.misses s.evictions
        (100.0 *. hit_rate s))
    rows
