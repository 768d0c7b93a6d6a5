(** Virtual CPU contexts.

    A vCPU wraps one kernel logical CPU (registered through hotplug) and
    tracks the virtualization-level state Tai Chi's scheduler manages:
    where the vCPU is placed, its current time slice, and exit statistics.
    The hardware-automated state transitions of VT-x-style virtualization
    are modeled by the {!Cost_model}. *)

open Taichi_engine

type placement =
  | Unplaced  (** not running anywhere; makes no progress *)
  | On_core of int  (** backed by the given physical core *)

type t = {
  vid : int;  (** vCPU index within Tai Chi *)
  kcpu : int;  (** kernel logical CPU id this vCPU backs *)
  mutable tenant : int;  (** owning tenant id; 0 = the implicit tenant *)
  mutable cls_rank : int;
      (** admission-class rank for the scheduler's class stage
          (0 = highest priority; default 1 = standard) *)
  mutable placement : placement;
  mutable slice : Time_ns.t;  (** current adaptive time slice *)
  mutable slice_started : Time_ns.t;
  mutable exits : (Vmexit.t * int) list;  (** exit-reason histogram *)
  mutable total_backed : Time_ns.t;  (** cumulative backed time *)
  mutable last_placed : Time_ns.t;
  mutable in_runq : bool;
      (** queued in the scheduler's runnable queue; owned by the vCPU
          scheduler *)
}

val create : vid:int -> kcpu:int -> initial_slice:Time_ns.t -> t

val record_exit : t -> Vmexit.t -> unit
val exit_count : t -> Vmexit.t -> int
val total_exits : t -> int

val is_placed : t -> bool
val core : t -> int option
(** Physical core currently backing the vCPU, if any. *)

val pp : Format.formatter -> t -> unit
