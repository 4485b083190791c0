(** Scheduler loading, registry and execution.

    A scheduler is a checked + optimized program plus an execution
    engine selected by name from the {!Engine} registry. Loaded
    schedulers live in a global registry so applications can reuse them
    by name without recompilation (paper §3.2). The front end is cached
    by source digest, so one specification yields one program; each
    engine compiles that program once ({!Engine}), and every connection
    takes its own instance, which costs only its scratch. *)

type t = {
  name : string;
  program : Progmp_lang.Tast.program;
  digest : string;  (** digest of the source text, the front-end cache key *)
  mutable reads : Progmp_lang.Props.read_set;
      (** the snapshot fields [run] may read: the program's read set
          ({!Progmp_lang.Tast.subflow_reads}, computed once per digest),
          or every field after {!install_custom}. A host may leave the
          other fields of a snapshot stale. *)
  mutable engine : string;  (** name of the selected engine *)
  mutable run : Env.t -> unit;
}

exception Load_error of string
(** Raised with a located, human-readable message when a specification
    fails to lex, parse or type-check. *)

val of_source : name:string -> string -> t
(** Compile a specification (without registering it); the interpreter
    engine is selected initially.
    @raise Load_error when the spec is invalid. *)

val set_engine : t -> string -> unit
(** Select an execution engine by registry name ("interpreter", "aot",
    "threaded"): a fresh instance of the engine's cached compilation.
    The read set returns to the program's.
    @raise Engine.Unknown when no such engine is registered. *)

val install_custom : t -> name:string -> (Env.t -> unit) -> unit
(** Install an ad-hoc decision function that is not a registry backend
    (the profiler's instrumented interpreter, a native oracle, a
    generated OCaml module); [name] is only a label. The read set
    becomes every field: OCaml code may read any of them. *)

val engine_label : t -> string

val instantiate_private : t -> engine:string -> t
(** A copy of [t] driving its own engine instance — sharing the
    immutable program and compiled code, but no mutable state, with the
    original or any other instance (an instance's scratch is not
    reentrant across domains or connections). Every [Api] socket,
    parallel run and fleet slot holds one.
    @raise Engine.Unknown when no such engine is registered. *)

val compilation_cache_stats : unit -> int * int
(** (hits, misses) of the source-digest front-end cache. *)

val load : name:string -> string -> t
(** Compile and register under [name], replacing any previous entry.
    @raise Load_error when the spec is invalid. *)

val find : string -> t option

val loaded_names : unit -> string list
(** Names of loaded schedulers, sorted. *)

type execution_record = {
  xr_scheduler : string;  (** scheduler name *)
  xr_engine : string;  (** engine label that produced the decision *)
  xr_actions : Action.t list;  (** actions emitted, program order *)
  xr_regs_read : int;  (** bitmask of registers read (bit [i] is R(i+1)) *)
  xr_regs_written : int;  (** bitmask of registers written *)
  xr_env : Env.t;  (** environment as left by the execution *)
}

val set_tracer : (execution_record -> unit) -> unit
(** Install the global decision-trace hook, fired after every
    {!execute}. The disabled path is one ref deref + match; keep the
    callback cheap, it runs on the decision hot path. *)

val clear_tracer : unit -> unit

val execute : t -> Env.t -> subflows:Subflow_view.t array -> Action.t list
(** One scheduler execution against a subflow snapshot; returns the
    produced actions in program order (after restoring popped-but-
    unhandled packets to their queues). *)

val execute_compressed :
  ?max_rounds:int ->
  t ->
  Env.t ->
  snapshot:(unit -> Subflow_view.t array) ->
  apply:(Action.t -> unit) ->
  int
(** Compressed execution (paper §4.1): re-execute while the scheduler
    makes progress, bounded by [max_rounds] (default 64). [apply] must
    apply each action to the host state and [snapshot] must return fresh
    views, so congestion-window checks eventually stop the loop. Returns
    the number of actions applied. Without a tracer each action goes to
    [apply] straight from the environment's buffer, so the loop builds
    no list; [apply] must not execute a scheduler against [env]. *)
