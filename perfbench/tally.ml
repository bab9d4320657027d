(* Failure accounting.  A request fails on a spawn or transport error, a
   non-zero exit, an error response, or a checksum that differs from
   the reference for its key. *)

type t = {
  mutable attempted : int;
  mutable errors : int;
  mutable first_error : string option;
  answers : (string * string, int) Hashtbl.t;
      (** (key, checksum) -> count: a 400k-request run stores a handful
          of entries, not one per request *)
}

let create () =
  { attempted = 0; errors = 0; first_error = None; answers = Hashtbl.create 64 }

let answer t ~key ~checksum =
  t.attempted <- t.attempted + 1;
  let k = (key, checksum) in
  Hashtbl.replace t.answers k (1 + Option.value ~default:0 (Hashtbl.find_opt t.answers k))

let error t msg =
  t.attempted <- t.attempted + 1;
  t.errors <- t.errors + 1;
  if t.first_error = None then t.first_error <- Some msg

(* Failed requests once every answer is checked against [reference];
   an answer whose key has no reference fails too. *)
let failed t ~reference =
  Hashtbl.fold
    (fun (key, checksum) n acc ->
      match reference key with
      | Some r when String.equal r checksum -> acc
      | Some _ | None -> acc + n)
    t.answers t.errors

let mismatches t ~reference =
  Hashtbl.fold
    (fun (key, checksum) _ acc ->
      match reference key with
      | Some r when String.equal r checksum -> acc
      | r -> (key, checksum, Option.value ~default:"none" r) :: acc)
    t.answers []

let error_rate t ~failed =
  if t.attempted = 0 then 1.0 else float_of_int failed /. float_of_int t.attempted
