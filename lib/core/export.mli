(** CSV export of the experiment datasets, for external plotting.

    Each figure's series goes to one file with a header row; the CLI's
    [export] command writes the whole set into a directory.  CSV quoting
    follows RFC 4180 (fields containing commas, quotes or newlines are
    quoted; quotes double). *)

type file = {
  filename : string;      (** e.g. "fig2b_leakage.csv" *)
  header : string list;
  rows : string list list;
}

val render : file -> string

val all_files : unit -> file list

val write_all : dir:string -> unit -> string list
(** Render every dataset into [dir] (created if missing); returns the
    paths written. *)
