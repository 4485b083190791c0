(** Discrete-event simulation core: a clock and a time-ordered event
    queue. Events scheduled for the same instant fire in scheduling
    order, keeping runs deterministic.

    The queue is a hierarchical timing wheel — O(1) post, timer arm and
    cancel, batched bucket drains. Fire times are quantized to a tick
    only to pick a bucket; events within a bucket are ordered by their
    exact [(time, sequence)] key, so execution order, executed counts
    and the final clock are bit-identical for any quantum.

    There are two kinds of event: a one-shot {!post}, which nothing can
    cancel, and a {!timer}, which can be cancelled and re-armed.
    Cancellation is physical (every event knows its slot and is
    swap-removed on {!timer_cancel}), so no structure ever holds a
    cancelled event and {!live_nodes} is exact at every step. *)

type t

val derive_quantum : min_delay:float -> float
(** A wheel tick a comfortable factor below [min_delay] (the smallest
    propagation delay in the topology), clamped to [[1e-7, 1e-2]]; a
    [min_delay] that is not positive and finite gets the default
    quantum. The quantum affects bucket occupancy only, never simulated
    timestamps. *)

val create : ?quantum:float -> unit -> t
(** [quantum] (wheel tick width in simulated seconds, default [1e-4])
    must be positive and finite; [Invalid_argument] otherwise. *)

val quantum : t -> float
val now : t -> float

val post : t -> at:float -> (unit -> unit) -> unit
(** A one-shot event at absolute time [at] (clamped to now when in the
    past). It cannot be cancelled, and its cell is recycled once it
    fires, so posting a pre-built action allocates nothing. Takes one
    sequence number. *)

val post_in : t -> delay:float -> (unit -> unit) -> unit

type timer
(** A re-armable event of one queue whose action closure and event cell
    are allocated once, at creation — for events that are cancelled or
    re-armed (RTO timers), which would otherwise need a fresh cell and
    capture-carrying closure on every arm. Cancellation is physical, so
    re-arming writes the new deadline into the cell in place and
    allocates nothing. Each arm takes one sequence number, like a
    {!post}. *)

val timer : t -> (unit -> unit) -> timer
(** An unarmed timer on the given queue, running [action] each time an
    arm fires. *)

val timer_arm : timer -> at:float -> unit
(** (Re-)arm at absolute time [at] (clamped to now); any previous arm is
    cancelled. *)

val timer_arm_in : timer -> delay:float -> unit

val timer_cancel : timer -> unit
(** Cancel the pending arm, if any — O(1) from a wheel bucket, O(log n)
    from the due heap; the timer can be re-armed. *)

val timer_armed : timer -> bool
(** Armed and not yet fired; [false] inside the timer's own action. *)

val add_observer : t -> (unit -> unit) -> unit
(** Register a callback that runs after every executed event, in
    registration order — the hook invariant checkers attach to.
    Observers are read-only: calling {!post}, {!post_in}, {!timer_arm}
    or {!timer_cancel} on the observed queue from inside an observer
    raises [Invalid_argument] naming the offending operation. *)

val run : ?until:float -> t -> int
(** Run events until the queue drains or the clock passes [until]
    (later events are kept for future runs). Returns the number of
    events executed. {!now} advances to each executed event's time, and
    to [until] when a pending event lies beyond it; a run that drains
    the queue leaves the clock at the last executed event. *)

val live_nodes : t -> int
(** Nodes holding pending events. Cancellation is physical, so this is
    also every node the queue holds. *)
