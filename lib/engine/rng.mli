(** Deterministic, splittable pseudo-random number generation.

    Every stochastic simulator component draws from its own named stream
    derived from a single root seed, so adding a component never perturbs
    the draws seen by the others and every experiment is reproducible
    bit-for-bit from its seed. The core generator is xoshiro256++ seeded by
    splitmix64, its state kept unboxed: {!int}, {!int_range}, {!bool} and
    {!bernoulli} allocate nothing, {!float} allocates only its result box
    and {!bits64} only its [int64] box. *)

type t
(** A generator state. *)

val create : seed:int -> t
(** [create ~seed] is a root generator derived from [seed]. *)

val split : t -> string -> t
(** [split rng name] derives an independent stream identified by [name].
    The child's seed material is [name] mixed with the parent's {e
    current} state: splitting does not advance the parent, but the same
    name split before and after a parent draw gives different streams.
    Derive every named stream from a root that is only split, never drawn
    from, when the streams must not depend on draw order. *)

val bits64 : t -> int64
(** [bits64 rng] is the next raw 64-bit output. *)

val fill_array : t -> int64 array -> unit
(** [fill_array rng a] fills [a] with the next [Array.length a] raw
    outputs in stream order: [a.(i)] is exactly what the [i]-th
    subsequent {!bits64} call would have returned. Hot cells hoist their
    per-event draws into one per-batch prefill (amortising the generator
    state updates over the batch) without perturbing the stream. *)

val int : t -> int -> int
(** [int rng n] is uniform in [\[0, n)]. Raises [Invalid_argument] when
    [n <= 0]. *)

val int_range : t -> lo:int -> hi:int -> int
(** [int_range rng ~lo ~hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float -> float
(** [float rng x] is uniform in [\[0, x)]. *)

val bool : t -> bool

val bernoulli : t -> p:float -> bool
(** [bernoulli rng ~p] is [true] with probability [p]. *)

val shuffle : t -> 'a array -> unit
(** [shuffle rng a] permutes [a] in place uniformly (Fisher–Yates). *)
