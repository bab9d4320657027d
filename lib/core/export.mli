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

val all_files : unit -> file list
(** Every dataset the figures regenerate. *)

val write_all : dir:string -> file list -> string list
(** Render each file into [dir] (created if missing); returns the paths
    written. *)
