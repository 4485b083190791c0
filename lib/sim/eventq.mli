(** Discrete-event simulation core: a clock and a time-ordered event
    queue. Events scheduled for the same instant fire in scheduling
    order, keeping runs deterministic.

    The queue is a hierarchical timing wheel — O(1) schedule, cancel
    and timer re-arm, batched bucket drains. Fire times are quantized
    to a tick only to pick a bucket; events within a bucket are ordered
    by their exact [(time, sequence)] key, so execution order, executed
    counts and the final clock are bit-identical for any quantum.

    Cancellation is physical (every event knows its slot and is
    swap-removed on {!cancel}), so no structure ever holds a cancelled
    event and {!live_nodes} is exact at every step. *)

type t

type event
(** Handle for cancellation. *)

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

val schedule : t -> at:float -> (unit -> unit) -> event
(** Schedule at absolute time (clamped to now when in the past). *)

val schedule_in : t -> delay:float -> (unit -> unit) -> event

val post : t -> at:float -> (unit -> unit) -> unit
(** {!schedule} without a handle: the event cannot be cancelled, and its
    cell is recycled once it fires, so posting a pre-built action
    allocates nothing. Ordering is exactly {!schedule}'s (one sequence
    number per post). *)

val post_in : t -> delay:float -> (unit -> unit) -> unit

val cancel : event -> unit
(** Physically remove the event — O(1) from a wheel bucket, O(log n)
    from the due heap — releasing its node and action closure immediately.
    Idempotent. *)

type timer
(** A re-armable event whose action closure is allocated once, at
    creation — for hot paths (RTO timers) that would otherwise build a
    fresh capture-carrying closure on every arm. The timer also owns a
    reusable event cell: cancellation is physical, so re-arming always
    writes the new deadline into the cell in place and allocates
    nothing. Arming behaves exactly like cancel-then-{!schedule}: one
    sequence number per arm, identical event traces. *)

val timer : (unit -> unit) -> timer
(** Create an unarmed timer running [action] each time an arm fires. *)

val timer_arm : t -> timer -> at:float -> unit
(** (Re-)arm at absolute time [at] (clamped to now); any previous arm is
    cancelled. *)

val timer_arm_in : t -> timer -> delay:float -> unit

val timer_cancel : timer -> unit
(** Cancel the pending arm, if any; the timer can be re-armed. *)

val timer_armed : timer -> bool

val add_observer : t -> (unit -> unit) -> unit
(** Register a callback that runs after every executed event, in
    registration order — the hook invariant checkers attach to.
    Observers are read-only: calling {!schedule}, {!cancel},
    {!timer_arm} or {!timer_cancel} on the observed queue from inside an
    observer raises [Invalid_argument] naming the offending operation. *)

val run : ?until:float -> t -> int
(** Run events until the queue drains or the clock passes [until]
    (later events are kept for future runs). Returns the number of
    events executed. {!now} advances to each executed event's time, and
    to [until] when a pending event lies beyond it; a run that drains
    the queue leaves the clock at the last executed event. *)

val live_nodes : t -> int
(** Nodes holding live (not cancelled) events. Cancellation is
    physical, so this is also every node the queue holds. *)
