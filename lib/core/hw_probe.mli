(** The hardware workload probe (§4.3, Fig 10).

    Roughly thirty lines of accelerator firmware in the real system: before
    preprocessing each I/O descriptor, look up the destination core in the
    per-CPU state table; if the core is in V-state, fire an asynchronous
    IRQ at it so the vCPU scheduler can restore the data-plane service
    while the 3.2 µs hardware window elapses. P-state cores are left alone
    (interrupts effectively masked), so a busy data-plane service is never
    disturbed. *)

open Taichi_hw
open Taichi_accel

type t

val install :
  Config.t -> Machine.t -> State_table.t -> Pipeline.t -> Vcpu_sched.t -> t
(** Hooks the pipeline's detection point. The probe only acts when
    [config.hw_probe] is true, so installing it unconditionally and
    toggling via config keeps wiring uniform. Trigger/suppression events go
    to the machine trace ([probe.hw]) and counter registry. *)

val set_suppressor : t -> (core:int -> bool) option -> unit
(** [set_suppressor t f] installs (or removes) a fault-injection predicate
    consulted when a V-state hit is about to fire an IRQ: [true] means the
    accelerator fails to raise it and the packet goes undetected. [None]
    (the default) suppresses nothing. *)

val misfire : t -> core:int -> unit
(** [misfire t ~core] injects a spurious probe IRQ at [core] through the
    normal delivery path (latency and pending dedup included), regardless
    of the core's table state — the false-positive case the scheduler's
    probe handler must tolerate. *)

val triggers : t -> int
(** IRQs fired (V-state hits): a view of [probe.hw.triggers]. *)

val suppressed : t -> int
(** Descriptors that found the core already being evicted (IRQ pending)
    and needed no second interrupt: a view of [probe.hw.suppressed]. *)
