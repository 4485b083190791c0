(** First-class execution-engine layer (paper §4.1, Table 3).

    An {e engine} is a named way of turning a checked scheduler program
    into an executable decision function [Env.t -> unit]. The registry
    makes the backends interchangeable and discoverable by name: the
    interpreter and the AOT closure compiler register themselves here,
    and [Progmp_compiler] adds the threaded-code engine, which runs
    verified bytecode, at link time. All backend selection — CLIs, benchmarks,
    differential tests, the simulator — goes through this one registry.

    A built-in engine works in two steps, like a scheduler compiled once
    and installed per connection (paper §3.2, §4.1):

    - [compile : Tast.program -> code] is pure. Its result is cached
      once per (engine, program) and never mutated afterwards, so every
      domain may read it: N connections, sweep workers or fleet shards
      running one scheduler share one compilation.
    - [instantiate : code -> Env.t -> unit] allocates only the
      per-instance scratch (the interpreter's and AOT's variable frame;
      the threaded engine's register file, stack and packet-handle
      table), so an execution allocates nothing of its own.
      An instance is not reentrant: it runs one execution at a time, on
      one domain. Instantiating again is cheap, so each connection or
      worker takes its own instance.

    The cache key is the program's physical identity: [Scheduler]
    interns one program per source digest, so one specification compiles
    once per engine and process. The cache is guarded by a mutex; the
    first instantiation compiles, later ones only allocate. *)

type caps = {
  compiled : bool;
      (** runs translated code rather than walking the typed IR *)
  verified : bool;
      (** passes through a load-time verifier before running *)
  description : string;
}

type factory = Progmp_lang.Tast.program -> Env.t -> unit
(** [factory program] returns a fresh instance: a decision function
    with its own scratch, run once per prepared environment. *)

type t = { engine_name : string; caps : caps; factory : factory }

exception Unknown of string
(** Raised by {!get}/{!instantiate} with a message naming the unknown
    engine and listing the registered ones. *)

val register : ?caps:caps -> string -> factory -> unit
(** [register name factory] (re-)registers an engine whose [factory]
    runs on every instantiation, with no cache of its own (wrappers that
    instrument a registered engine's factory, custom backends).
    Replaces any previous registration of the same name (idempotent). *)

val register_compiled :
  ?caps:caps ->
  string ->
  compile:(Progmp_lang.Tast.program -> 'code) ->
  instantiate:('code -> Env.t -> unit) ->
  unit
(** [register_compiled name ~compile ~instantiate] registers a two-step
    engine. Its factory is [fun p -> instantiate (code p)], where
    [code p] is [compile p] from the compiled-code cache: [compile]
    runs once per program, and its result must be immutable (shared
    across instances and domains). [instantiate] must allocate any
    mutable state afresh. Re-registering starts an empty cache. *)

val find : string -> t option

val get : string -> t
(** @raise Unknown when no engine of that name is registered. *)

val names : unit -> string list
(** Registered engine names, sorted (deterministic listings). *)

val all : unit -> t list
(** Registered engines, sorted by name. *)

val instantiate : string -> factory
(** [instantiate name program] is a fresh instance of [program] on
    engine [name], built from the cached compiled code.
    @raise Unknown when no engine of that name is registered. *)

val cache_stats : unit -> int * int
(** (hits, misses) of the compiled-code cache over every engine: each
    miss is one compile. For tests and metrics. *)
