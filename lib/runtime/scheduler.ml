(** Scheduler loading, registry and execution.

    A {e scheduler} is a checked program plus an execution engine
    selected by name from the {!Engine} registry (paper §3.2, "Choosing
    a Scheduler"; §4.1, interchangeable backends). Loaded schedulers are
    kept in a global registry so applications can reuse them by name
    without re-compilation; compilation itself is cached by source
    digest, so N connections loading the same specification share one
    typechecked program, and each engine compiles that program once;
    every connection then takes its own cheap instance. *)

type t = {
  name : string;
  program : Progmp_lang.Tast.program;
  digest : string;  (** digest of the source text, the front-end cache key *)
  mutable engine : string;  (** name of the selected engine *)
  mutable run : Env.t -> unit;
}

exception Load_error of string

let describe_error = function
  | Progmp_lang.Lexer.Error (m, loc) ->
      Some (Fmt.str "lexical error at %a: %s" Progmp_lang.Loc.pp loc m)
  | Progmp_lang.Parser.Error (m, loc) ->
      Some (Fmt.str "syntax error at %a: %s" Progmp_lang.Loc.pp loc m)
  | Progmp_lang.Typecheck.Error (m, loc) ->
      Some (Fmt.str "type error at %a: %s" Progmp_lang.Loc.pp loc m)
  | _ -> None

(* Compilation cache: source digest -> typechecked + optimized program.
   Loading the same specification twice (zoo reloads, one scheduler per
   connection) reuses the first front-end run. *)
let program_cache : (string, Progmp_lang.Tast.program) Hashtbl.t =
  Hashtbl.create 32

let program_cache_hits = ref 0

let program_cache_misses = ref 0

let compilation_cache_stats () = (!program_cache_hits, !program_cache_misses)

let compile_cached ~name src =
  let digest = Digest.to_hex (Digest.string src) in
  match Hashtbl.find_opt program_cache digest with
  | Some program ->
      incr program_cache_hits;
      (program, digest)
  | None -> (
      incr program_cache_misses;
      try
        let program =
          Progmp_lang.Optimize.program (Progmp_lang.Typecheck.compile_source src)
        in
        Hashtbl.replace program_cache digest program;
        (program, digest)
      with e -> (
        match describe_error e with
        | Some msg -> raise (Load_error (Fmt.str "scheduler %s: %s" name msg))
        | None -> raise e))

(** Compile a specification into a scheduler with the interpreter engine.
    @raise Load_error with a located message when the spec is invalid. *)
let of_source ~name src =
  let program, digest = compile_cached ~name src in
  {
    name;
    program;
    digest;
    engine = "interpreter";
    run = Engine.instantiate "interpreter" program;
  }

(** Select an execution engine by registry name ("interpreter", "aot",
    "threaded"): a fresh instance of the engine's cached compilation.
    @raise Engine.Unknown when no such engine is registered. *)
let set_engine t name =
  t.run <- Engine.instantiate name t.program;
  t.engine <- name

(** Install an ad-hoc decision function that is not a registry backend —
    an instrumented interpreter ({!Profiler}), a hand-written native
    oracle, or a generated OCaml module. [name] is only a label. *)
let install_custom t ~name run =
  t.run <- run;
  t.engine <- name

let engine_label t = t.engine

(** A private copy of [t] with its own engine instance. An instance
    carries mutable scratch and must not be entered from two domains (or
    two connections), so the registry entry [t] is never shared that
    way; a private copy shares the immutable program and compiled code
    and owns only its scratch — the parallel sweep runner and every
    fleet slot take one.
    @raise Engine.Unknown when no such engine is registered. *)
let instantiate_private t ~engine =
  { t with engine; run = Engine.instantiate engine t.program }

(* Global registry of loaded schedulers, keyed by name. *)
let registry : (string, t) Hashtbl.t = Hashtbl.create 16

let load ~name src =
  let t = of_source ~name src in
  Hashtbl.replace registry name t;
  t

let find name = Hashtbl.find_opt registry name

let loaded_names () =
  List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) registry [])

type execution_record = {
  xr_scheduler : string;
  xr_engine : string;
  xr_actions : Action.t list;
  xr_regs_read : int;  (** bitmask, bit [i] is R(i+1) *)
  xr_regs_written : int;
  xr_env : Env.t;  (** the environment as left by the execution *)
}

(* Decision-trace hook: fired once per {!execute} with a record of what
   ran and what it did. A global option ref keeps the disabled path down
   to one deref + match (no allocation, no indirection through a list of
   observers — the observability layer multiplexes on its side). *)
let tracer : (execution_record -> unit) option ref = ref None

let set_tracer f = tracer := Some f

let clear_tracer () = tracer := None

let trace t env ~reads ~writes actions =
  match !tracer with
  | None -> ()
  | Some f ->
      f
        {
          xr_scheduler = t.name;
          xr_engine = t.engine;
          xr_actions = actions;
          xr_regs_read = reads;
          xr_regs_written = writes;
          xr_env = env;
        }

(** Run one scheduler execution against [env] with the given subflow
    snapshot; returns the produced actions. *)
let execute t (env : Env.t) ~subflows =
  Env.begin_execution env ~subflows;
  t.run env;
  let reads = env.Env.reg_reads and writes = env.Env.reg_writes in
  let actions = Env.finish_execution env in
  trace t env ~reads ~writes actions;
  actions

(** Compressed execution (paper §4.1): rather than triggering the
    scheduler once per event, keep re-executing while it makes progress,
    bounded by [max_rounds]. [apply] must apply each round's actions to
    the host state and [snapshot] must return fresh subflow views (so
    that e.g. QUEUED reflects earlier rounds and congestion-window checks
    eventually stop the loop). Returns the number of actions applied.
    Untraced rounds hand the actions to [apply] straight from the
    environment's buffer; the action list is built only for a tracer. *)
let execute_compressed ?(max_rounds = 64) t (env : Env.t) ~snapshot ~apply =
  let rounds = ref 0 and total = ref 0 and progress = ref true in
  while !progress && !rounds < max_rounds do
    let n =
      match !tracer with
      | None ->
          Env.begin_execution env ~subflows:(snapshot ());
          t.run env;
          Env.finish_execution_iter env apply
      | Some _ ->
          let actions = execute t env ~subflows:(snapshot ()) in
          List.iter apply actions;
          List.length actions
    in
    if n = 0 then progress := false
    else begin
      incr rounds;
      total := !total + n
    end
  done;
  !total
