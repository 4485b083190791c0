(** One MPTCP subflow: a complete simulated TCP connection — NewReno
    congestion control with SACK-style hole marking, RTO with backoff,
    RFC 6298 RTT estimation plus a BBR-style windowed-max delivery-rate
    filter (the [THROUGHPUT] property), per-subflow TSQ accounting, and
    the receiver-side subflow ordering of §4.2. Suspected losses are
    retransmitted on the same subflow (TCP reliability) {e and} reported
    upward for cross-subflow reinjection, as in Linux MPTCP.

    Per-segment sender bookkeeping lives in pooled {!entry} records in
    an index-addressed ring (subflow seqs are dense in
    [snd_una, snd_nxt)), and the send buffer is a packet ring — the
    steady state allocates no per-segment structures. *)

open Progmp_runtime

type delivery_mode =
  | Two_layer
      (** stock kernel: a segment reaches the meta socket only once it is
          in-order {e within its subflow} *)
  | Immediate
      (** the paper's receiver fix: every arriving segment is handed to
          the meta socket at once; ordering happens only at the data
          level *)

(** Pooled in-flight entry. [e_pending] counts scheduled arrival events
    that have not fired; an entry returns to its pool only once drained,
    so stale arrivals can never observe a recycled entry. [e_sbf = None]
    marks a free or orphaned (owner scrapped) entry. [e_inc] stamps the
    owner's incarnation, so a copy outliving a {!scrap} cannot reach
    the owner's next flow. [e_gen] counts recyclings — the generation
    stamp the arena property tests check. *)
type entry = {
  mutable e_sbf : t option;  (** owner; [None] = free or orphaned *)
  mutable e_seq : int;
  mutable e_pkt : Packet.t;
  mutable e_size : int;
  mutable e_sent_at : float;
  mutable e_retx : bool;
  mutable e_lost : bool;  (** marked lost by SACK-style hole detection *)
  mutable e_in_ring : bool;  (** currently in its owner's in-flight ring *)
  mutable e_pending : int;  (** scheduled arrival events not yet fired *)
  mutable e_inc : int;  (** owner's incarnation when allocated *)
  mutable e_gen : int;  (** recycle count (pool generation stamp) *)
  e_pool : entry_pool;
  mutable e_fire : unit -> unit;  (** arrival event, knotted once *)
}

and entry_pool = {
  ep_free : entry Array_stack.t;
  mutable ep_created : int;
  mutable ep_outstanding : int;
  mutable ep_releases : int;
}
(** Freelist of in-flight entries; shareable across every subflow of a
    fleet shard so the entry population is bounded by peak in-flight
    segments, not total arrivals. *)

and ack_cell = {
  mutable a_sbf : int;
  mutable a_data : int;
  mutable a_inc : int;  (** incarnation that sent the ack *)
  mutable a_fire : unit -> unit;
}
(** Pooled in-flight ack (subflow + data ack values); recycled through
    the subflow's freelist when it fires or fails to send. An ack of an
    earlier incarnation fires inert. *)

and floats = {
  mutable cwnd : float;  (** segments *)
  mutable ssthresh : float;
  mutable srtt : float;
  mutable rttvar : float;
  mutable rtt_avg : float;
  mutable rate_anchor_t : float;
  mutable rate_ewma : float;  (** bytes/second; 0 until the first sample *)
}
(** The float state updated per ack, in a float-only record: its fields
    are stored unboxed, so a write allocates nothing, where a float
    field of the mixed record {!t} boxes on every write. *)

and t = {
  id : int;
  mss : int;
  mutable is_backup : bool;
  mutable forced_lossy : bool;
      (** externally injected lossiness (e.g. L2 signal quality reported
          by a connectivity manager): ORed into the LOSSY property *)
  clock : Eventq.t;
  data_link : Link.t;
  ack_link : Link.t;
  delivery_mode : delivery_mode;
  pool : entry_pool;
  mutable incarnation : int;
      (** bumped by {!scrap}; deferred events (segment arrivals, acks,
          handshake completion, re-establishment) of an earlier
          incarnation do nothing *)
  mutable self : t option;
      (** [Some] of this subflow, built once: the owner every in-flight
          entry records *)
  f : floats;
  (* --- sender state --- *)
  mutable established : bool;
  mutable snd_nxt : int;
  mutable snd_una : int;
  (* In-flight ring: live seqs are dense in [snd_una, snd_nxt), so the
     slot of [seq] is [seq land (capacity - 1)] exactly; empty slots
     hold a shared dummy entry. *)
  mutable infl : entry array;
  mutable infl_count : int;
  (* Send ring: scheduler-assigned packets, oldest at [sq_head]; empty
     slots hold {!Packet.dummy}. *)
  mutable sq : Packet.t array;
  mutable sq_head : int;
  mutable sq_len : int;
  mutable dupacks : int;
  mutable recover : int;  (** NewReno recovery point; -1 = not in recovery *)
  mutable rtt_samples : int;
  mutable rto : float;
  min_rto : float;
  mutable rto_timer : Eventq.timer;
      (** re-armable RTO; its action closure is allocated once, at
          subflow creation *)
  mutable lost_skbs : int;
  (* --- receiver-side subflow state --- *)
  mutable rcv_expected : int;
  rcv_ooo : (int, Packet.t) Hashtbl.t;
  ack_free : ack_cell Array_stack.t;  (** recycled ack cells *)
  hs_free : handshake Array_stack.t;  (** recycled handshake cells *)
  (* --- statistics --- *)
  mutable segs_sent : int;
  mutable segs_retx : int;
  mutable bytes_sent : int;
  mutable bytes_acked : int;
  (* per-subflow TSQ ring: (serialization completion time, bytes) of
     this subflow's segments queued at the bottleneck, oldest at
     [tsq_head], completion times nondecreasing *)
  mutable tsq_time : float array;
  mutable tsq_size : int array;
  mutable tsq_head : int;
  mutable tsq_len : int;
  mutable tsq_bytes : int;
  mutable tsq_timer : Eventq.timer;
      (** TSQ completion wake-up, see {!arm_tsq_wakeup}; allocated once,
          at subflow creation *)
  (* delivery-rate estimator backing the THROUGHPUT property (with
     [f.rate_anchor_t] and [f.rate_ewma]) *)
  mutable rate_anchor_bytes : int;
  mutable rate_time : float array;
  mutable rate_value : float array;
      (** ring of recent (time, bytes/s) samples for the windowed-max
          achievable-rate filter: 11 long (samples are at least 0.2 s
          apart and expire after {!rate_window}) from the flow's first
          sample, empty before it and after a path restart *)
  mutable rate_newest : int;  (** ring index of the newest sample *)
  mutable rate_len : int;  (** samples held, ending at [rate_newest] *)
  (* --- callbacks wired by the meta socket --- *)
  mutable on_meta_deliver : Packet.t -> unit;
      (** a segment's payload reached the meta socket (per delivery mode) *)
  mutable on_suspected_loss : Packet.t -> unit;  (** -> RQ *)
  mutable on_failed : Packet.t list -> unit;
      (** the subflow died with these packets unacknowledged: they are
          no longer in flight anywhere on this path and must be
          re-queued as fresh data (RQ is only for transient suspected
          losses, which RQ-ignoring schedulers may legitimately leave to
          subflow-level retransmission) *)
  mutable on_sender_event : unit -> unit;  (** re-trigger the scheduler *)
  mutable is_data_acked : Packet.t -> bool;
  mutable data_ack_value : unit -> int;  (** receiver's cumulative data ack *)
  mutable on_data_ack : int -> unit;
  mutable rwnd_bytes : unit -> int;  (** advertised meta receive window *)
  mutable rwnd_exempt : Packet.t -> bool;
      (** next-in-order data may be sent even against a closed window: it
          is consumed by the application immediately and never occupies
          the out-of-order buffer, which avoids the zero-window deadlock
          where only the blocked packet could reopen the window *)
  mutable cc_on_ack : t -> int -> unit;  (** pluggable window increase *)
}

and handshake = {
  mutable h_inc : int;
  mutable h_start : unit -> unit;
  mutable h_done : unit -> unit;
}
(** A pending handshake, recycled through the subflow's stack: its two
    event actions are built once per cell. *)

val initial_cwnd : int

val entry_pool : unit -> entry_pool
(** A fresh, empty entry freelist. *)

val entry_pool_created : entry_pool -> int
(** Entries ever allocated through this pool. *)

val entry_pool_outstanding : entry_pool -> int
(** Entries allocated and not yet recycled (in rings or orphaned with
    pending arrival events). *)

val entry_pool_releases : entry_pool -> int
(** Total recyclings. *)

val entry_pool_free : entry_pool -> entry list
(** The entries on the freelist (a copy, for tests). *)

val entry_pool_clean : entry_pool -> bool
(** [true] when every freelist entry holds the dummy packet, no owner
    and no pending events — the arena-recycling property. *)

val reno_on_ack : t -> int -> unit
(** Default window increase: slow start below ssthresh, then one
    segment per window. *)

val create :
  id:int ->
  clock:Eventq.t ->
  data_link:Link.t ->
  ack_link:Link.t ->
  ?mss:int ->
  ?is_backup:bool ->
  ?min_rto:float ->
  ?delivery_mode:delivery_mode ->
  ?entry_pool:entry_pool ->
  unit ->
  t
(** A new subflow; the record is allocated, then {!reset} sets its
    per-flow state. *)

val retained_capacity : int
(** Largest in-flight, send or TSQ ring capacity {!reset} keeps. *)

val reset : t -> unit
(** Return the subflow to the state {!create} gives it, in place, so a
    recycled connection can host a new flow; call it after {!scrap}.
    Rings grown past {!retained_capacity} go back to their initial
    size. Configuration, callbacks, the congestion hook and the
    incarnation survive. *)

val in_flight_count : t -> int

val queued_count : t -> int
(** Packets in the send buffer (scheduler-assigned, not yet on the
    wire). *)

val in_recovery : t -> bool

val lossy : t -> bool

val own_backlog_bytes : t -> int
(** This subflow's unserialized bytes at the bottleneck (per-subflow
    TSQ state: another flow's queue does not throttle this one). *)

val tsq_throttled : t -> bool

val arm_tsq_wakeup : t -> unit
(** The TSQ completion handler: when the subflow is established,
    throttled and has nothing in flight, no ack will come to re-run the
    scheduler once its backlog drains — arm a wake-up at the completion
    time of its oldest queued segment that calls
    {!field-on_sender_event}. The meta socket calls it after a trigger
    that leaves data queued. *)

val rtt_us : t -> int

val rate_window : float
(** Length of the achievable-rate max filter window, seconds. *)

val throughput_estimate : t -> int
(** Achievable rate: max delivery-rate sample of the last
    {!rate_window} seconds, falling back to the cwnd/RTT bound before
    any sample exists. *)

val view_into : reads:Progmp_lang.Props.read_set -> t -> Subflow_view.t -> unit
(** Refill an existing view in place — the per-decision snapshot path;
    the meta socket reuses one record per subflow across executions.
    Computes [id] and the fields in [reads] only; the other fields keep
    their previous values. *)

val view : t -> Subflow_view.t
(** A fresh snapshot with every field filled (cold paths: invariant
    checkers, tests). *)

val send : t -> Packet.t -> unit
(** Enqueue a packet assigned by the scheduler; transmits immediately
    while the congestion and receive windows allow. *)

val kick : t -> unit
(** Re-attempt transmission of buffered packets (blocking conditions
    may have cleared). *)

val establish : ?at:float -> t -> unit
(** Complete the abstracted handshake one RTT after [at]. A completion
    that finds the subflow scrapped since does nothing. *)

val fail : t -> unit
(** Connection break: everything in flight or buffered is handed to
    {!field-on_failed} for re-queueing at the meta level. *)

val reestablish : ?at:float -> t -> unit
(** Re-establish a previously failed subflow at [at]: congestion and RTT
    state restart from scratch and the subflow-level sequence spaces are
    resynchronized (the meta level already re-queued what the old
    connection lost). A no-op on an established subflow, or on one
    scrapped before [at]. *)

val iter_packets : t -> (Packet.t -> unit) -> unit
(** Visit every packet still referenced by this subflow (in-flight
    ring, send ring, receiver out-of-order buffer). *)

val scrap : t -> release_pkt:(Packet.t -> unit) -> unit
(** Dismantle a retired connection's subflow: release every referenced
    packet through [release_pkt] and recycle the in-flight entries
    (entries with arrival events still in the air are orphaned and
    recycle themselves once drained), then bump the incarnation so the
    flow's other deferred events become inert. *)

val inject_arrival : t -> seq:int -> Packet.t -> unit
(** Testing hook (packetdrill analogue, §4.2): inject a segment arrival
    at the receiver side, bypassing the link. *)
