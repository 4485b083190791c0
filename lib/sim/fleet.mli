(** Fleet hosting: many concurrent MPTCP connections on one shared
    {!Eventq} — the simulator-side analogue of a kernel serving heavy
    multi-user traffic. Connections arrive, transfer a bounded flow over
    their group's shared links, complete and are recycled into a free
    slot pool. Every slot holds a private scheduler instance
    ({!Progmp_runtime.Scheduler.instantiate_private}) and one connection
    shell (connection, meta socket, socket environment, subflows), both
    reused across recycles: the shell is built at the slot's first
    arrival, scrapped at each retirement — which makes the retired
    flow's in-flight events inert — and reset in place
    ({!Connection.recycle}) for the next arrival. The engine compiles
    the scheduler once, at the first slot's instantiation, and every
    slot shares that code: a slot costs only its scratch (register
    file, stack, packet-handle table), so any engine can host a fleet.
    Fleet-owned packet/entry arenas bound per-packet structures by peak
    in-flight data. Single-domain and fully
    deterministic: all randomness derives from the fleet seed via
    {!Rng.stream} / {!Rng.stream_seed}; arrivals are placed on groups by
    arrival index, so a fleet can be sharded by group across domains
    (one fleet instance per domain, same arrival sequence) and agree
    with the unsharded run on aggregate totals. *)

type t

type totals = {
  t_arrivals : int;
  t_completed : int;
  t_live : int;
  t_peak_live : int;
  t_delivered_bytes : int;
  t_wire_bytes : int;  (** per-subflow wire bytes, retransmissions included *)
  t_executions : int;  (** scheduler executions (decisions) *)
  t_pushes : int;
  t_fct_sum : float;  (** sum of flow completion times over completed flows *)
}

val create :
  ?clock:Eventq.t ->
  ?seed:int ->
  ?mss:int ->
  ?rcv_buffer:int ->
  ?cc:Congestion.policy ->
  ?scheduler:Progmp_runtime.Scheduler.t * string ->
  ?groups:int ->
  ?shard:int * int ->
  paths:Path_manager.path_spec list ->
  unit ->
  t
(** A fleet over [groups] independent link groups (default 1), each a
    shared data/ack link pair per element of [paths]; arrivals are
    assigned to groups round-robin by arrival index. [scheduler] is
    [(template, engine)]: each slot gets its own private instance;
    omitted, connections keep the registry default. [shard] is
    [(index, count)] (default [(0, 1)]): this instance owns the groups
    [g] with [g mod count = index] and silently skips arrivals it does
    not own — run [count] instances (one per domain, own clocks,
    identical traffic streams) and {!merge_totals} their results.
    [count] must not exceed [groups]; [paths] must not be empty. When
    [clock] is omitted, the fleet builds one with a wheel quantum
    derived from the minimum link propagation delay in [paths]
    ({!Eventq.derive_quantum}); quantization never changes simulated
    timestamps, so results are identical either way. *)

val arrive : t -> size:int -> unit
(** One open-loop arrival now: recycle (or create) a slot in the
    arrival's group, reset its connection shell (built over the group
    links at the slot's first arrival) with an arrival-indexed
    independent seed, and write [size] bytes. The flow retires itself
    into the group's free pool — releasing its packets and entries to
    the fleet arenas — once it is fully delivered. On a sharded fleet, arrivals for non-owned groups
    only advance the arrival index. *)

val run : ?until:float -> t -> int
(** Run the shared event loop; returns executed events. *)

val clock : t -> Eventq.t

val packet_pool : t -> Progmp_runtime.Packet.Pool.t
(** The fleet's packet arena (stats: created/outstanding/releases). *)

val entry_pool : t -> Tcp_subflow.entry_pool
(** The fleet's in-flight entry arena. *)

val iter_live : t -> (Connection.t -> unit) -> unit
(** Visit the connection of every live open-loop flow. A slot's
    connection is recycled for its next flow, so do not hold on to one
    past its flow's retirement. *)

val iter_live_packets : t -> (Progmp_runtime.Packet.t -> unit) -> unit
(** Visit every packet referenced by a live open-loop connection —
    the reachability side of the arena property tests. *)

val set_on_retire : t -> (fct:float -> size:int -> delivered:int -> unit) -> unit
(** Completion hook, fired once per retired flow — what the fleet
    metrics layer attaches its FCT histogram to. *)

val live : t -> int
(** Live connections now. *)

val peak_live : t -> int
val arrivals : t -> int
val completed : t -> int

val slot_count : t -> int
(** Slots ever created = peak open-loop concurrency. *)

val mean_fct : t -> float
(** Mean flow completion time over completed flows (0 when none). *)

val totals : t -> totals
(** Aggregate counters: harvested retired flows plus the current state
    of live connections. *)

val merge_totals : totals -> totals -> totals
(** Sum two shards' totals; [t_peak_live] adds per-shard peaks — an
    upper bound on the true global peak (shards peak at their own
    times). *)
