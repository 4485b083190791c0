(** Deterministic pseudo-random numbers (SplitMix64). Every stochastic
    element of the simulator draws from an explicitly seeded generator,
    making every experiment exactly reproducible. *)

type t

val create : int -> t

val reseed : t -> int -> unit
(** Restart the generator in place: it then draws exactly what
    [create seed] would. *)

val float : t -> float
(** Uniform in [0, 1). *)

val int : t -> int -> int
(** Uniform in [0, bound). @raise Invalid_argument on bound <= 0. *)

val coin : t -> p:float -> bool

val exponential : t -> mean:float -> float

val gaussian : t -> float
(** Standard normal (Box-Muller). *)

val split : t -> t
(** An independently seeded generator for a sub-component. Consumes one
    draw of [t]: successive splits differ. *)

val stream : seed:int -> int -> t
(** [stream ~seed i] is the [i]-th independent stream of [seed] — a pure
    function of [(seed, i)] that consumes no generator state, so
    parallel and serial consumers derive bit-identical streams
    regardless of evaluation order. *)

val stream_seed : seed:int -> int -> int
(** A non-negative integer seed derived from [(seed, i)], for components
    that take a seed rather than a generator. Pure, like {!stream}. *)
