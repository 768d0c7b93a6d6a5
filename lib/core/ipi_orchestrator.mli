(** The unified IPI orchestrator (§4.2, Fig 8).

    Hooks the machine's IPI send path (the [x2apic_send_IPI] interception
    of the real kernel module) and routes interrupts across the
    virtualization boundary:

    - {b source side}: an IPI issued from a placed vCPU triggers a
      lightweight VM-exit; the orchestrator reissues it from host context.
    - {b destination side}: an IPI to a running vCPU is posted without an
      exit; an IPI to a sleeping vCPU first awakens it (asks the vCPU
      scheduler to find it a core), then delivers; pCPU targets use the
      normal fabric path.

    It also owns vCPU registration: virtual CPUs are added to the kernel
    offline and booted through INIT/SIPI-style IPIs so the OS sees them as
    native CPUs and control-plane tasks can bind to them with plain CPU
    affinity — the zero-modification transparency property. *)

open Taichi_hw
open Taichi_os
open Taichi_virt

type t

val install :
  Config.t -> Machine.t -> Kernel.t -> Vcpu_sched.t -> Recovery.t -> t
(** Installs the machine IPI interceptor. With [config.resilience] and an
    active fault injector, wakeup IPIs to sleeping vCPUs are guarded by a
    delivery watchdog: if the target is still unplaced with pending work
    after 10 µs, it is re-poked with exponential backoff, up to 3
    attempts ([recovery.ipi.retry]). *)

val register_vcpus : t -> first_kcpu:int -> count:int -> Vcpu.t list
(** [register_vcpus t ~first_kcpu ~count] creates [count] vCPUs backed by
    kernel logical CPUs [first_kcpu..], adds them to the kernel (offline)
    and the scheduler, and initiates their hotplug boot. Returns the
    vCPUs; they come online after the kernel's boot delay elapses in
    simulated time. With [config.resilience], each boot is watched: a vCPU
    not online after 12 ms gets its boot IPI re-issued with a doubling
    timeout (capped at 48 ms), up to 10 attempts ([recovery.boot.retry]). *)

val online_vcpus : t -> int
(** vCPUs that completed hotplug so far. *)

val is_vcpu_kcpu : t -> int -> bool

type stats = {
  routed_to_vcpu : int;  (** IPIs whose destination was a vCPU *)
  posted : int;  (** delivered into a running vCPU without an exit *)
  wakeups : int;  (** sleeping-vCPU destinations awakened first *)
  reissued : int;  (** source-side vCPU exits with host reissue *)
}

val stats : t -> stats
