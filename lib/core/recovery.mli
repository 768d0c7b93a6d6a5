(** Recovery bookkeeping and the system-wide degraded mode.

    Every recovery mechanism in the stack — watchdog escalations in
    [Vcpu_sched], boot / wakeup-IPI retries in [Ipi_orchestrator], mirror
    resyncs in [Taichi] — reports each action through {!note}. The tracker
    turns those reports into:

    - a [recovery.<class>.<action>] counter per escalation rung,
    - a recovery-latency histogram (time from fault manifestation to the
      recovery action) for the chaos report,
    - the degraded-mode trigger: when more than [degraded_threshold]
      recovery events land within a sliding [degraded_window], the system
      falls back to static partitioning — co-scheduling callbacks
      registered with {!on_engage} fire (the vCPU scheduler stops placing
      vCPUs on data-plane cores) — and after [degraded_quiet] with no
      further recovery events it re-arms via {!on_rearm}.

    A tracker created from a config with [resilience = None] still
    accepts {!note} calls (they only touch counters) but never engages
    degraded mode. *)

open Taichi_engine
open Taichi_hw

type t

val create : Config.t -> Machine.t -> t

val note :
  t -> cls:string -> action:string -> latency:Time_ns.t -> unit
(** [note t ~cls ~action ~latency] records one recovery action: increments
    [recovery.<cls>.<action>], adds [latency] (how long the fault went
    unrepaired) to the histogram, emits a [Trace.Cat.recovery] record and
    feeds the degraded-mode window. *)

val degraded : t -> bool

val forced : t -> bool
(** Whether degraded mode is currently pinned by {!force_engage}. *)

val force_engage : t -> unit
(** Load-driven entry into static partitioning (the overload governor's
    final rung). Engages degraded mode if it is not already engaged
    (running the {!on_engage} callbacks exactly once) and pins it: the
    fault-side quiet period will not re-arm while the hold is in place.
    Idempotent. Works regardless of [Config.resilience] — the governor
    carries its own opt-in flag. *)

val force_release : t -> unit
(** Releases a {!force_engage} hold and re-arms immediately (running the
    {!on_rearm} callbacks) if degraded mode was engaged. No-op when not
    forced. *)

val on_engage : t -> (unit -> unit) -> unit
(** Registers a callback run (in registration order) when degraded mode
    engages. *)

val on_rearm : t -> (unit -> unit) -> unit
(** Registers a callback run when co-scheduling re-arms after the quiet
    period. *)

val engaged_count : t -> int
(** A view of [recovery.degraded.engaged]. *)

val rearmed_count : t -> int
(** A view of [recovery.degraded.rearmed]. *)

val events : t -> int
(** Total recovery events noted since creation. *)

val latency_hist : t -> Histogram.t
(** The recovery-latency histogram (nanoseconds). *)
