(** Unidirectional path model: serialization at a (possibly changing)
    bottleneck rate, propagation delay, optional jitter, random loss
    (Bernoulli or bursty Gilbert–Elliott), a bottleneck buffer governed
    by a queue discipline (drop-tail, or RED-style AQM) and an up/down
    state for scripted outages — the stand-in for the paper's Mininet
    links and in-the-wild WiFi/LTE paths. A link may be shared by
    several subflows, connections and background flows ({!Topology});
    competition is serialized on the one [busy_until]/backlog ring. *)

type red = {
  red_min : int;  (** min threshold on the averaged backlog, bytes *)
  red_max : int;  (** max threshold, bytes *)
  red_pmax : float;  (** drop probability at [red_max] *)
  red_weight : float;  (** EWMA weight of the instantaneous backlog *)
}
(** RED (random early detection) AQM configuration: arrivals are dropped
    probabilistically once the EWMA of the backlog exceeds [red_min],
    ramping linearly to [red_pmax] at [red_max] with a forced drop
    above — classic Floyd/Jacobson mechanics including the
    count-since-last-drop uniformization. *)

type qdisc = Drop_tail | Red of red

val default_red : red
(** 32 kB / 128 kB thresholds, 10% max drop probability, 0.05 EWMA
    weight. *)

type params = {
  bandwidth : float;  (** bytes per second at the bottleneck *)
  delay : float;  (** one-way propagation delay, seconds *)
  loss : float;  (** packet loss probability in [0, 1] *)
  jitter : float;  (** std-dev of gaussian delay noise, seconds *)
  buffer_bytes : int;  (** bottleneck buffer size (hard drop-tail cap) *)
  qdisc : qdisc;  (** queueing discipline at the bottleneck buffer *)
}

val default_params : params
(** 10 Mbit/s, 10 ms, lossless, 256 kB buffer, drop-tail. *)

type gilbert = {
  p_enter : float;  (** good -> bad transition probability per packet *)
  p_exit : float;  (** bad -> good transition probability per packet *)
  loss_bad : float;  (** loss probability while in the bad state *)
  mutable bad : bool;  (** current chain state *)
}

type loss_model = Bernoulli | Gilbert of gilbert

(** The link's float state, kept in a float-only record so that the
    per-packet updates store in place instead of boxing. *)
type floats = {
  mutable busy_until : float;  (** serialization horizon *)
  mutable red_avg : float;  (** RED EWMA of the backlog *)
  mutable occ_integral : float;  (** backlog time integral ... *)
  mutable occ_last : float;  (** ... up to this instant *)
}

type t = {
  mutable params : params;
  rng : Rng.t;
  clock : Eventq.t;
  mutable up : bool;
  mutable loss_model : loss_model;
  f : floats;
  (* backlog ring, oldest at [q_head]; completion times nondecreasing *)
  mutable q_time : float array;
  mutable q_size : int array;
  mutable q_head : int;
  mutable q_len : int;
  mutable q_bytes : int;
  mutable red_count : int;  (** RED uniformization count *)
  mutable peak_backlog : int;
  mutable delivered : int;
  mutable lost : int;
  mutable tail_dropped : int;
  mutable red_dropped : int;
  mutable lost_down : int;
}

val create : ?params:params -> clock:Eventq.t -> rng:Rng.t -> unit -> t
(** @raise Invalid_argument on a non-positive or non-finite bandwidth,
    or inconsistent RED thresholds/probabilities. *)

val set_bandwidth : t -> float -> unit
(** Change the bottleneck rate at runtime (bandwidth fluctuation).
    Packets already accepted keep the arrival times and byte accounting
    they were admitted with; only later transmissions see the new rate.
    @raise Invalid_argument when the rate is zero, negative or not
    finite — a non-positive rate would push [busy_until] to infinity
    and wedge the simulation. *)

val set_delay : t -> float -> unit

val set_loss : t -> float -> unit
(** Change the (good-state) loss probability; packets already in flight
    keep the loss decision made when they entered the bottleneck. *)

val set_qdisc : t -> qdisc -> unit
(** Switch the bottleneck queue discipline at runtime; RED averaging
    restarts from the current instantaneous backlog.
    @raise Invalid_argument on inconsistent RED parameters. *)

val set_gilbert : t -> p_enter:float -> p_exit:float -> loss_bad:float -> unit
(** Switch to a Gilbert–Elliott burst-loss process (starting in the good
    state, whose loss stays [params.loss]). The chain advances once per
    transmitted packet; the stationary loss rate is
    [pi_bad * loss_bad + (1 - pi_bad) * params.loss] with
    [pi_bad = p_enter / (p_enter + p_exit)]. *)

val set_bernoulli : t -> unit
(** Back to independent losses at [params.loss]. *)

val set_down : t -> unit
(** Take the link down: packets sent while down are destroyed without
    consuming serialization time, and packets still in the air are lost
    at their arrival instant. Idempotent. *)

val set_up : t -> unit
(** Bring the link back up (idempotent). *)

val is_up : t -> bool

val bandwidth : t -> float

val delay : t -> float

val busy_until : t -> float
(** Absolute time at which everything currently queued will be on the
    wire. *)

val backlog_bytes : t -> int
(** Bytes waiting for serialization, across all users of the link —
    tracked per packet at admission time, immune to later
    {!set_bandwidth} calls. *)

val mean_backlog : t -> float
(** Time-averaged bottleneck occupancy in bytes since the link was
    created (exact integral of the piecewise-constant backlog). *)

val peak_backlog : t -> int
(** Highest instantaneous backlog seen so far, bytes. *)

type outcome =
  | Delivered  (** admitted; the arrival is scheduled *)
  | Lost_random
  | Dropped_tail
  | Dropped_red  (** AQM early drop: rejected before occupying the buffer *)
  | Lost_down

val dropped : t -> int
(** Total packets rejected at the bottleneck buffer (drop-tail overflow
    + AQM early drops). *)

val arrival : t -> bool
(** Record a data-packet arrival now: [true] (and counted delivered)
    when the link is up, [false] (counted lost) when it went down while
    the packet was in flight. For {!transmit} callbacks. *)

val transmit : t -> size:int -> (unit -> unit) -> outcome
(** Send [size] bytes; on success the callback is posted as the arrival
    event directly — no per-packet wrapper closure. The callback must
    begin with [if Link.arrival link then ...]; it is typically built
    once per retransmittable segment and reused across retransmissions.
    A randomly lost packet still consumes serialization time; a dropped
    one (tail or RED) does not. On a down link the packet is destroyed
    immediately ([Lost_down]); one still in the air when the link goes
    down is destroyed at arrival. *)

val control_send : t -> (unit -> unit) -> bool
(** Ack/control hot path: schedule the callback at now + delay (no loss,
    no bandwidth), with no wrapper allocation. [false] when the link is
    down at send time (nothing scheduled). The callback must check
    {!is_up} at arrival itself. *)
