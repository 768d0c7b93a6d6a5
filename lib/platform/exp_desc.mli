(** Declarative experiment descriptors: the registry's unit of work.

    A descriptor exposes its grid shape ([cells]) instead of hiding it in
    driver loops, which is what lets {!Sweep} fan cells out across
    domains and lets the CLI list cell counts or filter sub-matrices
    without running anything. *)

type cell = {
  key : string;  (** unique within the experiment; the canonical sort key *)
  label : string;  (** human-readable, for [--list] and progress output *)
}

type t =
  | T : {
      name : string;  (** registry id, e.g. ["fig17"] *)
      title : string;  (** banner line printed before the cells run *)
      description : string;  (** one-liner for [--list] *)
      cells : cell list;
      run_cell : Run_ctx.t -> seed:int -> scale:float -> cell -> 'r;
          (** evaluate one grid point. Must not touch shared mutable state:
              all output goes through the context, all harvest through its
              sink. Runs on an arbitrary domain. *)
      summarize :
        Run_ctx.t -> seed:int -> scale:float -> (cell * 'r) list -> unit;
          (** render tables / check cross-cell oracles, given the results
              of every cell that ran, in cell order. Always executes on
              the coordinating domain after all cells finished. *)
    }
      -> t

val make :
  name:string ->
  title:string ->
  description:string ->
  cells:cell list ->
  run_cell:(Run_ctx.t -> seed:int -> scale:float -> cell -> 'r) ->
  summarize:(Run_ctx.t -> seed:int -> scale:float -> (cell * 'r) list -> unit) ->
  t
(** Pack a descriptor. Raises [Invalid_argument] on duplicate cell keys. *)

val single :
  name:string ->
  title:string ->
  description:string ->
  (Run_ctx.t -> seed:int -> scale:float -> unit) ->
  t
(** A one-cell experiment whose driver prints everything itself (through
    the context). *)

val name : t -> string
val title : t -> string
val description : t -> string
val cells : t -> cell list
val cell_count : t -> int

val result : (cell * 'r) list -> string -> 'r option
(** [result results key] is the result of cell [key] if it ran. A
    [--cells] selection may leave any cell out, so a summary renders the
    rows whose cells ran and leaves out the rest. *)

val matches : string -> cell -> bool
(** [matches patterns cell] holds when the cell's whole key matches at
    least one of the comma-separated glob [patterns], where [*] matches
    any substring (including the empty one): ["storm-*"], ["*-on"],
    ["*n8-*fo_on"]. An empty item matches only the empty key, i.e. no
    cell. This is the CLI's [--cells] selector. *)
