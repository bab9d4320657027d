(** Circuit netlists for the DC / transient solvers.

    A netlist is a bag of two- and three-terminal elements over integer
    nodes.  Node 0 is ground.  Voltage sources carry time-dependent
    waveforms so the same netlist drives both operating-point and
    transient analyses. *)

type node = int
(** Node index; [ground] is 0. *)

val ground : node

type waveform =
  | Const of float
      (** Fixed level. *)
  | Step of { t_delay : float; t_rise : float; v0 : float; v1 : float }
      (** [v0] until [t_delay], linear ramp to [v1] over [t_rise], then
          [v1].  A falling edge is expressed with [v1 < v0]. *)
  | Pwl of (float * float) list
      (** Piecewise-linear (time, volts) corners, strictly increasing in
          time; clamps outside the given range. *)

val waveform_at : waveform -> float -> float
(** Evaluate a waveform at a time (DC analyses use t = 0). *)

type element =
  | Resistor of { plus : node; minus : node; ohms : float }
  | Capacitor of { plus : node; minus : node; farads : float }
  | Vsource of { plus : node; minus : node; volts : waveform }
  | Isource of { from_node : node; to_node : node; amps : float }
      (** Pushes a constant current out of [from_node] into [to_node]
          through the source (i.e. KCL sees it leaving [from_node]). *)
  | Fet of {
      params : Finfet.Device.params;
      nfin : int;
      gate : node;
      drain : node;
      source : node;
    }

type t
(** A netlist under construction / ready for analysis. *)

val create : unit -> t

val fresh_node : t -> string -> node
(** Allocate a named node.  Names are only for diagnostics. *)

val node_name : t -> node -> string

val add : t -> element -> unit

val num_nodes : t -> int
(** Including ground. *)

val elements : t -> element list
(** In insertion order. *)

val vsource_count : t -> int

val validate : t -> (unit, string) result
(** Checks element terminals refer to allocated nodes, resistor/capacitor
    values are positive, and fin counts are positive. *)

(** Convenience constructors *)

val resistor : t -> plus:node -> minus:node -> ohms:float -> unit
val capacitor : t -> plus:node -> minus:node -> farads:float -> unit
val vdc : t -> plus:node -> minus:node -> volts:float -> unit
val vwave : t -> plus:node -> minus:node -> wave:waveform -> unit
val idc : t -> from_node:node -> to_node:node -> amps:float -> unit

val fet :
  t -> params:Finfet.Device.params -> ?nfin:int ->
  gate:node -> drain:node -> source:node -> unit -> unit
(** Default [nfin] is 1 (the all-single-fin SRAM cell case). *)
