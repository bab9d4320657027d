(* The replay's own span recorder: name, start, end, parent and request
   id, kept in memory and written out when the benchmark ends.  The
   program's Obs recording stays off, so the replay does not also pay
   for the program's internal spans. *)

type t = {
  id : int;
  name : string;
  rid : int;  (** request id: the request's position in its stream *)
  parent : int;  (** [-1] for a request's root span *)
  start_s : float;
  end_s : float;
}

type recorder = { mutable rev : t list; mutable next_id : int }

let create () = { rev = []; next_id = 0 }
let spans r = List.rev r.rev
let now = Obs.Clock.now

(* Ids are handed out when a span opens, so children can name a parent
   that is still running. *)
let open_id r =
  let id = r.next_id in
  r.next_id <- id + 1;
  id

let add r span = r.rev <- span :: r.rev

(* [f] returns the span's name with its value, for spans named by what
   the call turned out to do (a memo hit or a search). *)
let timed_named r ~rid ~parent f =
  let id = open_id r in
  let start_s = now () in
  let name, v = f () in
  add r { id; name; rid; parent; start_s; end_s = now () };
  v

let timed r ~rid ~parent name f = timed_named r ~rid ~parent (fun () -> (name, f ()))

(* Self time: a span's duration minus the part of its interval that its
   children cover.  Children are clipped to the parent and overlaps are
   merged, so concurrent children are not subtracted twice. *)
let self_times spans =
  let children = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.add children s.parent s) spans;
  List.map
    (fun s ->
      let kids =
        Hashtbl.find_all children s.id
        |> List.map (fun c -> (Float.max c.start_s s.start_s, Float.min c.end_s s.end_s))
        |> List.filter (fun (a, b) -> b > a)
        |> List.sort compare
      in
      let covered, last =
        List.fold_left
          (fun (acc, cur) (a, b) ->
            match cur with
            | Some (ca, cb) when a <= cb -> (acc, Some (ca, Float.max cb b))
            | Some (ca, cb) -> (acc +. (cb -. ca), Some (a, b))
            | None -> (acc, Some (a, b)))
          (0.0, None) kids
      in
      let covered =
        match last with Some (a, b) -> covered +. (b -. a) | None -> covered
      in
      (s, s.end_s -. s.start_s -. covered))
    spans

let to_json_line (s : t) =
  Printf.sprintf
    "{\"id\":%d,\"name\":%S,\"rid\":%d,\"parent\":%d,\"start_us\":%.3f,\"end_us\":%.3f}"
    s.id s.name s.rid s.parent (1e6 *. s.start_s) (1e6 *. s.end_s)

let write path spans =
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun s -> output_string oc (to_json_line s ^ "\n")) spans)
