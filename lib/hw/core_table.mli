(** A table keyed by physical core: one slot per core, read and written by
    index, that also remembers the order an [(int, _) Hashtbl.t] created
    with [Hashtbl.create 16] would visit the same bindings in.

    The per-event placement path (vCPU placement, eviction, slice expiry)
    looks cores up on every event, so it indexes an array instead of
    hashing a key. A few rare paths — the watchdog scan, degraded-mode
    engage, a tenant's forced drain — act on every binding in turn, and
    the order they act in is part of the simulated output: the golden
    digests pin the order the original hash tables produced. That order
    is:

    - by bucket, [Hashtbl.hash core land (buckets - 1)], {e descending};
    - within a bucket, by insertion, oldest first.

    [buckets] starts at 16 and doubles whenever the number of live
    bindings exceeds twice its value, as the stdlib table's does; it never
    shrinks. An insertion is a write into an empty slot; a write over a
    live binding keeps its place. *)

type 'a t

val create : cores:int -> 'a t
(** [create ~cores] is an empty table for cores [0..cores-1]. *)

val find : 'a t -> int -> 'a option
(** [find t core] is the binding of [core]; [None] when there is none or
    [core] is out of range. Allocates nothing. *)

val mem : 'a t -> int -> bool

val replace : 'a t -> int -> 'a -> unit
(** [replace t core v] binds [core] to [v]. Raises [Invalid_argument] for
    an out-of-range core. *)

val remove : 'a t -> int -> unit
(** [remove t core] unbinds [core]; no-op when it is unbound. *)

val bindings : 'a t -> (int * 'a) list
(** The live bindings in the order
    [Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []] lists them for
    the equivalent stdlib table (see the module comment). *)

val iter : (int -> 'a -> unit) -> 'a t -> unit
(** [iter f t] applies [f] to each binding in core order. *)
