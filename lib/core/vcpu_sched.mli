(** The Tai Chi vCPU scheduler (§4.1).

    Dynamically maps over-provisioned vCPUs (each a kernel logical CPU
    hosting control-plane tasks) onto idle data-plane cores:

    - {b DP-to-CP yielding}: when a data-plane service reports idleness
      (software workload probe), the scheduler picks the next runnable
      vCPU from the two-stage weighted run queue ({!Wsched}: tenant
      deficit-round-robin over granted pCPU time, then strict-priority
      FIFO across admission-class ranks — a flat round-robin under the
      implicit single tenant), takes the core through the softirq-based
      context switch (modeled as the 2 µs world switch), and flips the
      core to V-state in the accelerator's state table.
    - {b CP-to-DP preemption}: a hardware-probe IRQ or pending work at
      slice expiry evicts the vCPU and resumes the data-plane service; the
      2 µs restore overlaps the 3.2 µs preprocessing window when the probe
      is enabled.
    - {b Adaptive time slice}: 50 µs initially, doubling on expiry exits
      (sustained idleness), reset on probe exits.
    - {b Lock-context safety}: a vCPU evicted while its current task is
      non-preemptible is immediately re-placed on another parked
      data-plane core, or failing that borrows a dedicated CP pCPU
      (reclaiming it from the kernel) until the lock is released —
      guaranteeing forward progress (§4.1). *)


open Taichi_engine
open Taichi_hw
open Taichi_os
open Taichi_virt
open Taichi_accel
open Taichi_dataplane

type t

val initial_slice : Time_ns.t  (** paper: 50 µs (§4.1) *)

val max_slice : Time_ns.t
(** Cap for the doubling slice (100 µs); bounds worst-case data-plane
    recovery when the hardware probe is absent. *)

val create :
  ?tenants:Tenant.table ->
  Config.t ->
  Machine.t ->
  Kernel.t ->
  Softirq.t ->
  Sw_probe.t ->
  State_table.t ->
  Recovery.t ->
  t
(** Pass [?tenants] to share the platform's one mutable tenant table
    (required under churn so dynamically admitted ids line up across
    layers); the default derives a fresh static table from the config.

    Installs the kernel work-available and cpu-idle hooks. DP-to-CP
    context switches enter guest context through the dedicated softirq
    (§4.1), registered per data-plane core by {!register_dp}.

    With [config.resilience] or [config.overload] armed the scheduler
    also runs the hung-vCPU watchdog (scan every 100 µs; a vCPU placed
    past 1 ms under eviction pressure escalates reschedule →
    lock-rescue → forced borrow eviction, one [recovery.watchdog.*]
    counter per rung) and registers the degraded-mode callbacks: on
    engage every non-lock-bound placement is returned to its data-plane
    service and new placements stop; on re-arm the preserved runqueue
    repopulates parked cores. *)

val add_vcpu : t -> Vcpu.t -> unit
val vcpus : t -> Vcpu.t list

val register_dp : t -> Dp_service.t -> unit
(** Attach a data-plane service: installs its idle-threshold and
    idle-detected hooks and makes its core a yield target. *)

val set_cp_pcpus : t -> int list -> unit
(** Dedicated control-plane physical CPUs used as the borrow fallback for
    lock-context rescheduling. *)

val on_probe_irq : t -> core:int -> unit
(** Entry point for the hardware workload probe: evict the vCPU on [core]
    and restore the data-plane service. *)

val placed_vcpu : t -> core:int -> Vcpu.t option

val set_place_gate : t -> (int -> bool) option -> unit
(** [set_place_gate t (Some allowed)] installs the overload governor's
    placement gate: every DP-to-CP placement attempt first asks
    [allowed tenant] (which may consume a rate-limit token from that
    tenant's lane). A denial leaves the vCPU on the runqueue, like a
    parked core with no waiter — and gates only that tenant: the weighted
    queue skips a refused tenant and offers the pop to the next one.
    [None] (the default) removes the gate. *)

val granted_ns : t -> tenant:int -> int
(** Cumulative pCPU grant time (ns of placement occupancy, including
    borrows) charged to [tenant]'s virtual clock — the quantity the
    weighted queue equalises in proportion to tenant weights. *)

val kick_runnable : t -> unit
(** Retry placement for every vCPU with pending work — called after the
    governor's ladder relaxes so work blocked by the gate doesn't wait
    for the next idle notification. *)

val watchdog_stuck : t -> int
(** Number of vCPUs currently hung past the watchdog bound (placed under
    eviction pressure, or borrowing a CP pCPU, for longer than 1 ms). The
    chaos oracle asserts this is 0 after the post-injection grace
    period. *)

val poke : t -> kcpu:int -> unit
(** Awaken the vCPU backing kernel CPU [kcpu] if it has work — the
    orchestrator's path for IPIs targeting a sleeping vCPU (§4.2). *)

(** {1 Tenant churn}

    The lifecycle manager's hooks into the weighted queue and the vCPU
    population. All of these are inert unless [Config.churn] built a
    pool: static runs never call them. *)

val admit_tenant : t -> weight:int -> int
(** Grow the weighted queue by one lane for a dynamically admitted
    tenant, entering at the active minimum virtual clock (no stale or
    banked credit). Returns the new lane id. *)

val retire_tenant : t -> tenant:int -> unit
(** Retire the tenant's weighted-queue lane. The lane must be empty —
    call {!flush_tenant} first on the force path. *)

val flush_tenant : t -> tenant:int -> Vcpu.t list
(** Remove every queued entry for [tenant] from the weighted queue (in
    pop order) so retirement can proceed; the entries are returned for
    teardown. *)

val force_evict_tenant : t -> tenant:int -> unit
(** Drain escalation: evict the tenant's placed vCPUs and force-end its
    borrows. Lock-bound guests are suspended unbacked (their tasks are
    already cancelled) rather than rescued. *)

val reassign_vcpu : t -> Vcpu.t -> tenant:int -> cls_rank:int -> unit
(** Move a quiescent vCPU between a tenant and the spare pool
    (tenant [-1]). Raises [Invalid_argument] if the vCPU is still
    placed, queued or borrowing. *)

val tenant_vcpus : t -> tenant:int -> Vcpu.t list

val quiesce_violations : t -> tenant:int -> string list
(** What still stands between a draining tenant and vCPU-side
    quiescence (placements, borrows, queue entries, pending kernel
    work), as human-readable receipts; [[]] means quiet. Feeds both the
    drain poll and the zero-orphan audit. *)

type stats = {
  placements : int;
      (** vCPU switched onto a data-plane core: [sched.placements] *)
  probe_evictions : int;
      (** evicted by a hardware-probe IRQ: [sched.evictions.probe] *)
  pending_evictions : int;
      (** evicted at slice expiry with work waiting:
          [sched.evictions.pending] *)
  halt_exits : int;  (** [sched.halt_exits] *)
  rotations : int;
      (** direct vCPU-to-vCPU switches: [sched.rotations] *)
  lock_rescues : int;
      (** §4.1 safe rescheduling events: [sched.rescues] *)
  borrows : int;
      (** rescues that had to borrow a CP pCPU: [sched.borrows] *)
  unsafe_suspensions : int;
      (** evictions that left a lock-holder unbacked (only with
          [lock_safe_resched = false]): [sched.unsafe_suspensions] *)
}

val stats : t -> stats
(** A view of the machine's counter registry: each field reads the
    global (not per-tenant) counter named in its doc, so it always equals
    [Counters.get] of that name. *)
