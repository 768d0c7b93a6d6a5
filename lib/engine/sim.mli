(** The discrete-event simulator core.

    A simulator owns a virtual clock and a cancellable event queue. Events
    scheduled for the same instant fire in the order they were scheduled,
    making every run deterministic.

    Internally the engine is a calendar timer queue ({!Timerq}: a 512 ns
    x 4096-bucket wheel with a binary-heap overflow tier) fed by a
    preallocated event pool with free-list recycling, so the schedule /
    cancel / fire hot path allocates nothing: no closures, no per-event
    queue nodes, and handles are immediate ints (slot index packed with
    the slot generation). Fire order is bit-identical to the seed
    binary-heap engine, which is kept outside the library as
    [Sim_legacy] (test/oracle) and enforced as a differential oracle in
    the test suite. *)

type t
(** A simulator instance. *)

type handle = private int
(** A handle on a scheduled event, usable to cancel it. An unboxed
    slot/generation pack; operations on it take the owning simulator. *)

val create : unit -> t
(** [create ()] is a fresh simulator with the clock at time 0. *)

val now : t -> Time_ns.t
(** [now sim] is the current simulated time. *)

val at : t -> Time_ns.t -> (unit -> unit) -> handle
(** [at sim time f] schedules [f] to run at absolute [time]. Scheduling in
    the past raises [Invalid_argument]. *)

val after : t -> Time_ns.t -> (unit -> unit) -> handle
(** [after sim delay f] schedules [f] to run [delay] from now. *)

val immediate : t -> (unit -> unit) -> handle
(** [immediate sim f] schedules [f] at the current time, after all callbacks
    already queued for this instant. *)

val cancel : t -> handle -> unit
(** [cancel sim h] prevents the event from firing. Cancelling an event that
    has already fired or been cancelled is a no-op. *)

val is_pending : t -> handle -> bool
(** [is_pending sim h] is [true] iff the event has neither fired nor been
    cancelled. *)

val run : ?until:Time_ns.t -> t -> unit
(** [run ?until sim] processes events in time order until the queue is
    empty, or until the clock would pass [until]. When stopped by [until],
    the clock is left exactly at [until]. *)

val step : t -> bool
(** [step sim] processes the single next event. Returns [false] when the
    queue is empty. *)

val pending_events : t -> int
(** [pending_events sim] is the number of live (uncancelled) events. *)

val events_processed : t -> int
(** [events_processed sim] counts events fired since creation, a useful
    progress and complexity metric. *)

val events_scheduled : t -> int
(** [events_scheduled sim] counts sequence numbers issued since creation
    (every [at]/[after]/[immediate] plus every {!reserve_seq}). *)

(** {2 Reserved-sequence scheduling}

    The accelerator pipeline batches packet deliveries through a single
    timer instead of one event per packet, yet must stay bit-identical
    to the one-event-per-packet engine: same-instant events interleave
    by sequence number. These hooks let a batcher claim the exact
    sequence numbers the per-packet events would have had, and schedule
    its drain timer under them. *)

val reserve_seq : t -> int
(** [reserve_seq sim] claims and returns the next sequence number, as if
    an event had been scheduled, without queueing anything. *)

val at_reserved : t -> Time_ns.t -> seq:int -> (unit -> unit) -> unit
(** [at_reserved sim time ~seq f] schedules [f] at [time] under the
    previously {!reserve_seq}d [seq]. The caller must schedule each
    reserved seq at most once. Raises [Invalid_argument] if [time] is in
    the past or [seq] was never reserved. *)

val next_event : t -> (Time_ns.t * int) option
(** [next_event sim] is the [(time, seq)] of the earliest live pending
    event, if any — what would fire next. Tombstoned (cancelled) heads
    are swept as a side effect. *)

val has_event_before : t -> time:Time_ns.t -> seq:int -> bool
(** [has_event_before sim ~time ~seq] is [true] iff a live pending event
    orders strictly before [(time, seq)] — the allocation-free query a
    batcher uses to decide whether it may keep draining inline or must
    yield back to the engine. *)

val dead_events : t -> int
(** [dead_events sim] is the number of cancelled tombstones currently
    sitting in the event heap. Cancellation is lazy; tombstones are swept
    either on pop or by compaction when they exceed ~2x the live count. *)

val compactions : t -> int
(** [compactions sim] counts in-place heap rebuilds triggered by tombstone
    accumulation since creation. *)
