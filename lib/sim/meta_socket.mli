(** The MPTCP meta socket (paper §2.1): the central abstraction of a
    connection, tying the application-facing socket, the sending queues,
    the scheduler-calling model of Fig. 4 and the subflows together, and
    implementing the data-level receiver (ordering, cumulative data
    acks, finite receive buffer). *)

open Progmp_runtime

type ordering = Ordered | Unordered

type t = {
  name : string;
  clock : Eventq.t;
  sock : Api.socket;
  mss : int;
  mutable subflows : Tcp_subflow.t list;
  mutable next_seq : int;  (** next data sequence number (segment units) *)
  mutable data_una : int;  (** highest cumulative data ack received *)
  mutable compressed : bool;  (** use compressed executions (§4.1) *)
  mutable scheduling : bool;  (** re-entrancy guard *)
  (* receiver state *)
  ordering : ordering;
  mutable rcv_expected : int;
  rcv_ooo : (int, int) Hashtbl.t;  (** data seq -> size, buffered out of order *)
  mutable rcv_ooo_bytes : int;
  rcv_buffer_bytes : int;
  mutable on_deliver : seq:int -> size:int -> time:float -> unit;
  (* statistics *)
  delivery_time : (int, float) Hashtbl.t;  (** data seq -> in-order delivery *)
  mutable delivered_bytes : int;
  mutable delivered_segments : int;
  mutable app_segments : int;  (** distinct segments written by the app *)
  mutable pushes : int;  (** PUSH actions applied *)
  mutable drops : int;  (** DROP actions applied *)
  mutable data_dropped : int;  (** dropped without ever being sent *)
  mutable sched_executions : int;
  mutable view_arenas : Subflow_view.t array array;
      (** reusable snapshot arrays for {!snapshot}, one per
          established-subflow count *)
  mutable packet_pool : Packet.Pool.t option;
      (** when set (fleet-hosted connections), {!write} draws packet
          records from this arena instead of allocating *)
  pool_pkts : Packet.t Array_stack.t;
      (** every packet drawn from [packet_pool] — the release registry
          {!scrap} drains back to the arena *)
  mutable snapshot_fn : unit -> Subflow_view.t array;
      (** the compressed loop's [snapshot] callback, built once *)
  mutable apply_fn : Action.t -> unit;
      (** the compressed loop's [apply] callback, built once *)
}


val env : t -> Env.t

val create :
  ?name:string ->
  ?mss:int ->
  ?rcv_buffer:int ->
  ?compressed:bool ->
  ?ordering:ordering ->
  ?scheduler:Scheduler.t ->
  clock:Eventq.t ->
  unit ->
  t
(** A new meta socket; the record is allocated, then {!reset} sets its
    per-flow state. *)

val reset : t -> unit
(** Return the meta socket to its freshly created state in place
    (sequence spaces, receiver buffers, counters, the socket's
    environment and default properties) so a recycled connection can
    host a new flow; call it after {!scrap}. Configuration, the subflow
    list, the delivery hook and the packet arena survive. *)

val rwnd_bytes : t -> int
(** Advertised receive window: buffer capacity minus out-of-order
    bytes. *)

val snapshot : t -> Subflow_view.t array
(** Immutable views of the established subflows for one execution. The
    returned array is an arena owned by the meta socket and is refilled
    on the next trigger — callers must not retain it across
    executions. *)

val apply_action : t -> Action.t -> unit
(** Apply one scheduler action: a [Push] marks the packet, tracks it in
    QU and hands it to the subflow; a push to a vanished subflow returns
    the packet to Q (never lost). *)

val trigger : t -> unit
(** Run the scheduler now (one of the calling-model events fired); also
    re-kicks subflows whose blocking conditions may have cleared. *)

val on_data_ack : t -> int -> unit
(** Cumulative data ack: acknowledged packets leave all queues. *)

val on_suspected_loss : t -> Packet.t -> unit
(** Suspected losses enter the reinjection queue RQ and trigger the
    scheduler. *)

val attach : t -> Tcp_subflow.t -> unit
(** Wire a subflow's callbacks to this meta socket. *)

val enqueue : ?props:int array -> t -> int -> unit
(** {!write} without building the list of sequence numbers (a fleet
    arrival's write). *)

val write : ?props:int array -> t -> int -> int list
(** Segment application data into Q (stamped with the socket's current
    packet properties) and trigger the scheduler; returns the data
    sequence numbers used. *)

val all_delivered : t -> bool

val delivery_time_of : t -> int -> float option
(** Delivery time of a data segment under the active ordering
    discipline. Always [None] for fleet-hosted (pooled) ordered
    connections, which do not keep the per-segment log — the fleet
    computes FCT from arrival/retire times instead. *)

val scrap : t -> release_pkt:(Packet.t -> unit) -> unit
(** Fleet slot-recycle pass: release every packet the connection still
    references (queues, subflow rings, receiver buffers) through
    [release_pkt] — deduplicated by the packet pool's [pooled] flag —
    and empty the queues. *)

val fct : t -> first:int -> last:int -> float option
(** Latest delivery time of the segment range, or [None] when
    incomplete. *)
