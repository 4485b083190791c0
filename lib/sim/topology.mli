(** Declarative link-graph topologies: named links (with per-link queue
    disciplines) shared by several subflows, several connections and
    background single-path cross-traffic — the shared-bottleneck
    scenario space LIA (RFC 6356) exists for. Routes are one-hop: each
    MPTCP path crosses one named link in the data direction, with a
    private unconstrained ack-return path whose delay provides RTT
    heterogeneity; everything routed over the same named link competes
    for its serialization horizon and backlog ring. *)

type link_spec = { l_name : string; l_params : Link.params }

type route = {
  r_path : string;  (** MPTCP path name, e.g. "wifi" *)
  r_link : string;  (** named link the data direction crosses *)
  r_ack_delay : float option;
      (** ack-return one-way delay; defaults to the link's delay *)
  r_backup : bool;
}

type t = { t_name : string; t_links : link_spec list; t_routes : route list }

val name : t -> string

val validate : t -> (unit, string) result
(** Non-empty, unique link/path names, routes reference known links. *)

val dumbbell : t
(** Two MPTCP routes (wifi, lte — the lte ack path slower) through one
    shared drop-tail bottleneck: 10 Mbit/s, 20 ms, 128 kB buffer, 0.5%
    loss. *)

val dumbbell_red : t
(** {!dumbbell} with a RED AQM at the bottleneck. *)

val two_bottlenecks : t
(** The same two routes over private bottlenecks (the point-to-point
    world expressed as a graph). *)

val builtins : t list

val names : string list
(** Builtin topology names, for CLI/axis validation messages. *)

val of_name : string -> t option

val parse : ?name:string -> string -> (t, string) result
(** Parse the text format, one declaration per line ['#' comments]:
    {v
link NAME bw BYTES_PER_S delay S [loss P] [jitter S] [buffer BYTES]
          [red MIN_BYTES MAX_BYTES PMAX]
path NAME via LINK [ack_delay S] [backup]
    v}
    Errors are located as ["name:LINE: message"]. *)

val load : string -> (t, string) result
(** {!parse} a file (errors located by file name and line). *)

val resolve : string -> (t, string) result
(** Resolve a [--topology] argument: builtin name or topology file;
    the error lists the builtins. *)

type built
(** A topology instantiated on a clock: one shared {!Link.t} per named
    link. *)

val build : ?seed:int -> clock:Eventq.t -> t -> built
(** Instantiate the links (per-link rngs from {!Rng.stream} on [seed] in
    declaration order — two builds with the same seed are identical).
    @raise Invalid_argument when the topology fails {!validate}. *)

val spec : built -> t

val link_exn : built -> string -> Link.t
(** @raise Invalid_argument on an unknown link name. *)

val links : built -> (string * Link.t) list
(** In declaration order. *)

val attach :
  ?establish_at:float ->
  built ->
  Path_manager.path_spec list
(** Materialize every route as a path spec over its links for
    {!Connection.create}: data links are the shared named links, ack
    links fresh and private. Call once per connection. *)

val connect :
  ?seed:int ->
  ?cc:Congestion.policy ->
  ?rcv_buffer:int ->
  ?delivery_mode:Tcp_subflow.delivery_mode ->
  ?scheduler:Progmp_runtime.Scheduler.t ->
  built ->
  Connection.t
(** An MPTCP connection over all routes of the topology (default cc:
    LIA); [scheduler] as for {!Connection.create}. *)

val single :
  ?seed:int ->
  ?name:string ->
  ?ack_delay:float ->
  built ->
  via:string ->
  unit ->
  Connection.t
(** A background single-path TCP flow (uncoupled Reno, one subflow)
    crossing the named link — the fairness experiments' cross-traffic.
    @raise Invalid_argument on an unknown link name. *)

type link_stats = {
  ls_name : string;
  ls_delivered : int;
  ls_lost : int;  (** random losses *)
  ls_tail_dropped : int;
  ls_red_dropped : int;
  ls_mean_backlog : float;  (** time-averaged occupancy, bytes *)
  ls_peak_backlog : int;
}

val stats : built -> link_stats list
(** Per-link counters and occupancy, in declaration order. *)

val pp_stats : Format.formatter -> link_stats list -> unit
(** One line per link, as {!stats} returns them. *)
