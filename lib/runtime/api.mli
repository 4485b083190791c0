(** The extended scheduling API (paper §3.2, Figs. 7–8): the
    application-facing handle through which schedulers are loaded and
    selected per connection, scheduling intents are signalled through
    registers, and outgoing data is annotated with per-packet
    properties. *)

type socket = {
  sock_name : string;
  env : Env.t;
  mutable scheduler : Scheduler.t;
  mutable default_props : int array;
      (** properties stamped on packets created from subsequent writes *)
}

exception Api_error of string

val default_scheduler_source : string
(** The paper's default scheduler (min-RTT, reinjections first, backup
    semantics); loaded as the registry's "default" entry when a socket
    is created and no such entry exists. *)

val create : ?name:string -> ?scheduler:Scheduler.t -> unit -> socket
(** A fresh socket running [scheduler], which becomes the socket's own
    (pass an instance nothing else runs, e.g. from
    [Scheduler.instantiate_private]). Without it, the socket runs the
    registry's {e current} "default" entry (read at each creation, so a
    later reload or [Scheduler.set_engine] reaches sockets created
    afterwards) on a private instance of that entry's engine; a host
    with its own instance passes it here rather than replacing the
    default afterwards, so no instance is built only to be dropped.

    Every socket owns its instance: an engine instance carries mutable
    scratch (the interpreter's and AOT's variable frame, the threaded
    engine's registers) and must not be shared across connections or
    domains. The one exception is an entry whose engine is not a
    registry engine — a decision function installed with
    [Scheduler.install_custom] (the profiler, a native oracle,
    generated code): it cannot be re-instantiated and is shared as
    installed, so the caller must not run it from two domains. *)

val reset : socket -> unit
(** Return the socket to its freshly created state in place (see
    {!Env.reset}; default properties back to zero) for a recycled
    connection. The selected scheduler is kept. *)

val load_scheduler : string -> name:string -> unit
(** Compile [spec] and register it for {!set_scheduler}.
    @raise Api_error when the specification does not compile. *)

val set_scheduler : socket -> string -> unit
(** Select a previously loaded scheduler for this connection, on a
    private instance of its engine (shared as installed when its engine
    is not a registry engine, see {!create}).
    @raise Api_error when no scheduler of that name is loaded. *)

val set_register : socket -> int -> int -> unit
(** Set scheduler register [reg] (0-based, R1..R6).
    @raise Api_error on an out-of-range register. *)

val get_register : socket -> int -> int

val set_packet_property : socket -> prop:int -> int -> unit
(** Set a default per-packet property (0-based, PROP1..PROP4): data
    written afterwards carries it. @raise Api_error out of range. *)

val current_packet_props : socket -> int array

val scheduler_name : socket -> string
