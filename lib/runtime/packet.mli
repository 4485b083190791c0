(** Packets — the runtime's [sk_buff] analogue: one MSS-sized segment of
    application data identified by its data (meta-level) sequence
    number. Mutable fields are only updated between scheduler
    executions, preserving the model's immutability guarantee. *)

type t = {
  mutable id : int;
      (** stable handle, > 0 (0 is the NULL handle); mutable only for
          {!Pool.alloc}'s re-minting — constant while allocated *)
  mutable seq : int;  (** data sequence number *)
  mutable size : int;  (** payload bytes *)
  user_props : int array;  (** PROP1..PROP4, set via the extended API *)
  mutable sent_on_mask : int;  (** bit [i] set: pushed on subflow id [i] *)
  mutable sent_count : int;  (** number of pushes (redundant copies) *)
  mutable enqueue_time : float;  (** when the application queued the data *)
  mutable acked : bool;  (** meta-level (data) acknowledgement received *)
  mutable reg_stamp : int;
      (** engine scratch: generation stamp of the last execution that
          registered this packet (threaded engine handle cache; stamps
          are process-unique, so stale stamps never alias) *)
  mutable reg_handle : int;
      (** engine scratch: handle minted for [reg_stamp]'s execution *)
  mutable pooled : bool;  (** currently sitting in a {!Pool} freelist *)
  mutable pool_gen : int;
      (** recycle count: bumped at {!Pool.release} — the generation
          stamp the arena property tests check *)
}

val create : ?props:int array -> seq:int -> size:int -> now:float -> unit -> t
(** Fresh packet with a process-unique positive id. *)

val dummy : t
(** The NULL packet (id 0): padding for packet-typed arena slots. Never
    enqueued, never mutated. *)

(** Packet arena: an explicit freelist recycling packet records through
    the fleet's slot-recycle lifecycle, bounding packet allocation by
    peak in-flight data instead of total arrivals. Releases are
    flag-deduplicated (a packet can sit in Q/QU/RQ, a send ring and an
    in-flight table at once) and recycled packets are re-minted with a
    fresh id so stale holders never alias the new incarnation. *)
module Pool : sig
  type packet = t
  type t

  val create : unit -> t

  val alloc : t -> props:int array -> seq:int -> size:int -> now:float -> packet
  (** Freelist-backed {!val-create} ([props] is copied, as there):
      recycled records get a fresh process-unique id and fully reset
      fields. [props] is not optional so that a call allocates no
      [Some]. *)

  val release : t -> packet -> unit
  (** Return a packet to the freelist; idempotent per incarnation, and
      a no-op on {!dummy}. Bumps [pool_gen]. *)

  val created : t -> int
  (** Records ever allocated through this pool. *)

  val outstanding : t -> int
  (** Allocated and not yet released. *)

  val releases : t -> int
  (** Total releases (= recyclings). *)

  val free_count : t -> int
  (** Records currently in the freelist. *)
end

val sent_on : t -> sbf_id:int -> bool

val mark_sent : t -> sbf_id:int -> unit

val user_prop : t -> int -> int
(** Out-of-range indices read 0. *)

val set_user_prop : t -> int -> int -> unit
(** Out-of-range indices are ignored. *)

val pp : Format.formatter -> t -> unit
