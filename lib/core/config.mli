(** Tai Chi configuration.

    Only what a deployment or an experiment actually chooses: the vCPU
    count, the four §6.4 ablation switches, the tenant table, and the
    optional subsystems. An optional subsystem is an [option] carrying
    its own parameters, so a disarmed subsystem has no parameters to
    set.

    The paper fixes its timings as properties of the mechanism (§4.1,
    §4.3), so they are constants in the one module that reads each:
    - {!Vcpu_sched}: [initial_slice], [max_slice], [halt_poll],
      [borrow_slice], [watchdog_period], [watchdog_bound];
    - {!Sw_probe}: [threshold_init], [threshold_min], [threshold_max],
      [threshold_dec];
    - {!Hw_probe}: [irq_latency];
    - {!Ipi_orchestrator}: [boot_retry_timeout], [boot_retry_max],
      [ipi_retry_timeout], [ipi_retry_max];
    - {!Taichi}: [mirror_resync_period];
    - {!Lifecycle}: [spare_vcpus], [float_services], [drain_window],
      [drain_poll], [admit_retry_base], [admit_retry_cap],
      [admit_retry_max].

    Virtualization costs are [Taichi_virt.Cost_model.default]. *)

open Taichi_engine

type resilience = {
  degraded_window : Time_ns.t;
      (** sliding window over recovery events for the degraded trigger *)
  degraded_threshold : int;
      (** recovery events within [degraded_window] that trip degraded mode *)
  degraded_quiet : Time_ns.t;
      (** recovery-quiet time before co-scheduling re-arms *)
}
(** Degraded-mode parameters of the recovery machinery. *)

type overload = {
  period : Time_ns.t;  (** governor sampling cadence *)
  min_dwell : Time_ns.t;
      (** minimum time at a ladder level before the next transition *)
  quiet : Time_ns.t;
      (** how long every signal must stay below its low watermark before
          the ladder relaxes one rung *)
  p99_bound : Time_ns.t;
      (** sliding-window DP p99 latency guardrail (escalation signal) *)
  busy_high : float;
      (** DP-core busy fraction above which the occupancy signal trips *)
  busy_low : float;  (** busy fraction below which it clears *)
  runq_high : int;
      (** summed vCPU-host runqueue depth above which the queue signal
          trips *)
  runq_low : int;  (** runqueue depth below which it clears *)
  tokens_per_period : int;
      (** CP placement/admission tokens refilled per [period] at the
          Throttle rung (deeper rungs halve this) *)
  token_burst : int;  (** token-bucket capacity *)
}
(** Overload-governor parameters. *)

type t = {
  n_vcpus : int;
      (** over-provisioned vCPUs registered as native CPUs; default one per
          data-plane core *)
  hw_probe : bool;  (** enable the hardware workload probe *)
  lock_safe_resched : bool;
      (** enable §4.1 safe CP-to-DP scheduling in lock context *)
  adaptive_slice : bool;  (** double the slice on expiry exits *)
  adaptive_threshold : bool;  (** adapt N from VM-exit reasons *)
  tenants : Tenant.spec list;
      (** explicit multi-tenant table; [[]] (the default) runs the
          implicit single tenant and keeps every pre-existing experiment
          byte-identical to the seed baselines *)
  resilience : resilience option;
      (** arm the recovery machinery (watchdogs, retries, mirror resync,
          degraded mode). [None] by default: the timers it schedules would
          perturb the deterministic event order of happy-path runs. *)
  overload : overload option;
      (** arm the overload governor (live brownout ladder). [None] by
          default for the same reason as [resilience]: its sampling timer
          would perturb the event order of existing runs. *)
  churn : bool;
      (** arm the tenant-churn lifecycle manager (live admit/retire with
          graceful drain) over {!Lifecycle}'s provisioned pool; off by
          default so static runs build no pool *)
}

val default_resilience : resilience
(** Degraded mode after 12 recovery events within 2 ms; re-arm after
    4 ms of quiet. *)

val default_overload : overload
(** Sample every 200 µs; 400 µs minimum dwell; relax after 1 ms quiet;
    150 µs DP p99 guardrail. *)

val default : t
(** The full Tai Chi configuration: everything enabled, no optional
    subsystem armed. *)

val no_hw_probe : t -> t
(** §6.4 ablation: disable the hardware workload probe. *)

val fixed_slice : t -> t
(** Ablation: disable adaptive time slices. *)

val fixed_threshold : t -> t
(** Ablation: disable the adaptive empty-poll threshold. *)

val unsafe_locks : t -> t
(** Ablation: disable lock-context safe rescheduling. *)

val resilient : t -> t
(** Arm the recovery machinery with {!default_resilience}. Used by the
    [chaos] experiment; plain experiments keep it off so their event
    schedules stay bit-for-bit identical to earlier releases. *)

val with_overload : t -> t
(** Arm the overload governor with {!default_overload}. Like
    [resilient], an explicit opt-in so default runs schedule no governor
    timer. *)

val with_tenants : t -> Tenant.spec list -> t
(** Configure an explicit tenant table (see [tenants]). *)

val with_churn : t -> t
(** Arm the tenant-churn lifecycle (see [churn]). *)

val tenant_table : t -> Tenant.table
(** The registry derived from [tenants]: {!Tenant.single} when the list
    is empty. Builds a fresh table per call — the platform constructs
    exactly one per system and threads that instance everywhere, so
    churn-time mutations are shared. *)
