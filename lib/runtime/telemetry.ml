type counter = int Atomic.t

let lock = Mutex.create ()
let counters : (string, counter) Hashtbl.t = Hashtbl.create 16

let counter name =
  Mutex.lock lock;
  let c =
    match Hashtbl.find_opt counters name with
    | Some c -> c
    | None ->
      let c = Atomic.make 0 in
      Hashtbl.add counters name c;
      c
  in
  Mutex.unlock lock;
  c

let add c n = ignore (Atomic.fetch_and_add c n)
let incr c = add c 1
let value = Atomic.get

let snapshot () =
  Mutex.lock lock;
  let cs =
    Hashtbl.fold (fun name c acc -> (name, Atomic.get c) :: acc) counters []
  in
  Mutex.unlock lock;
  List.sort compare cs

let reset () =
  Mutex.lock lock;
  Hashtbl.iter (fun _ c -> Atomic.set c 0) counters;
  Mutex.unlock lock

let print_report ?(channel = stdout) () =
  let snap = snapshot () in
  if snap <> [] then begin
    Printf.fprintf channel "%-28s %12s\n" "counter" "count";
    List.iter
      (fun (name, n) -> Printf.fprintf channel "%-28s %12d\n" name n)
      snap
  end
