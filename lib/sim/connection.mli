(** A complete simulated MPTCP connection: clock, RNG, meta socket and
    managed paths — the top-level object experiments construct. Several
    connections may share one clock (and even links) to model competing
    traffic. *)

type t = {
  clock : Eventq.t;
  rng : Rng.t;
  meta : Meta_socket.t;
  cc : Congestion.policy;
  min_rto : float;  (** subflow options {!add_path} builds with *)
  delivery_mode : Tcp_subflow.delivery_mode;
  entry_pool : Tcp_subflow.entry_pool option;
  mutable paths : Path_manager.managed list;
}

val create :
  ?clock:Eventq.t ->
  ?seed:int ->
  ?mss:int ->
  ?rcv_buffer:int ->
  ?compressed:bool ->
  ?min_rto:float ->
  ?delivery_mode:Tcp_subflow.delivery_mode ->
  ?ordering:Meta_socket.ordering ->
  ?cc:Congestion.policy ->
  ?entry_pool:Tcp_subflow.entry_pool ->
  ?packet_pool:Progmp_runtime.Packet.Pool.t ->
  ?scheduler:Progmp_runtime.Scheduler.t ->
  paths:Path_manager.path_spec list ->
  unit ->
  t
(** Build a connection with one subflow per path ({!Path_manager.attach}):
    over the path's own [links] when it names them — hand several
    connections the same data link and they compete for its bottleneck
    (§2.1 TCP-friendliness experiments) — and over a private link pair
    drawn from the connection's RNG otherwise. [delivery_mode] selects
    the §4.2 receiver behaviour (default: earliest-possible delivery);
    [ordering] the §6 delivery discipline; [cc] the congestion-control
    coupling (default LIA); [scheduler] the instance the socket owns
    (default: a private instance of the registry's "default" entry, see
    {!Progmp_runtime.Api.create}); [entry_pool] and [packet_pool] the
    arenas a fleet shares between its connections. Pass [clock] to
    share a simulated network epoch with other connections; it must be
    the clock of every path's links. *)

val recycle : t -> seed:int -> unit
(** Host a new flow on a connection whose last flow was {!scrap}ped:
    meta socket, socket environment (queues, registers, default
    properties), subflows and RNG return in place to the state
    {!create} builds — with [seed] as its seed — and every
    path restarts its handshake at its spec's establish time. The
    scheduler and the links are kept. Stale events of the old flow are
    inert (see {!Tcp_subflow.scrap}). *)

val now : t -> float

val run : ?until:float -> t -> unit

val at : t -> time:float -> (unit -> unit) -> unit

val sock : t -> Progmp_runtime.Api.socket

val notify_scheduler : t -> unit
(** Nudge the scheduler (e.g. after the application changed a
    register) — one of the Fig. 4 calling-model events. *)

val write : ?props:int array -> t -> int -> int list
(** Write application data now; returns the data sequence numbers. *)

val write_at : ?props:int array -> t -> time:float -> int -> unit

val subflow : t -> int -> Tcp_subflow.t

val data_link : t -> int -> Link.t

val find_path : t -> string -> Path_manager.managed option

val add_path : t -> at:float -> Path_manager.path_spec -> Path_manager.managed
(** Dynamically add a path (handover scenarios) with the [min_rto],
    [delivery_mode] and [entry_pool] the connection was created with;
    reinstalls the connection's congestion policy across all subflows
    so a coupled increase sees the newcomer. *)

val fail_path : t -> Path_manager.managed -> at:float -> unit

val scrap : t -> release_pkt:(Progmp_runtime.Packet.t -> unit) -> unit
(** Fleet slot-recycle pass: release every packet the connection still
    references through [release_pkt] (see {!Meta_socket.scrap}). *)

val delivered_bytes : t -> int

val bytes_sent_per_subflow : t -> (string * int) list
