(** Compiler driver: typed program -> verified bytecode, plus engine
    installation into the runtime's scheduler registry.

    Pipeline: {!Codegen.generate} -> {!Regalloc.allocate} ->
    {!Emit.emit} -> {!Bopt.optimize} -> {!Verifier.verify} ->
    {!Threaded.compile}. Verification runs once, on the optimized
    program the threaded engine compiles. A program that fails
    verification is never installed, mirroring the kernel refusing an
    eBPF object. *)

exception Rejected of string
(** The verifier rejected the generated code (a compiler bug by
    construction; surfaced rather than installed). *)

type stats = {
  vinstrs : int;  (** virtual instructions before lowering *)
  raw_instrs : int;  (** emitted instructions before the middle-end *)
  instrs : int;  (** final instruction count *)
  spill_slots : int;
  spilled_vregs : int;
}

val compile_with_stats :
  ?subflow_count:int -> Progmp_lang.Tast.program -> Vm.prog * stats
(** Compile and verify; [subflow_count] specializes for a constant
    number of subflows (§4.1).
    @raise Rejected on verifier failure.
    @raise Invalid_argument if [subflow_count] is negative. *)

val compile : ?subflow_count:int -> Progmp_lang.Tast.program -> Vm.prog

val engine :
  ?fallback:(Progmp_runtime.Env.t -> unit) ->
  Vm.prog ->
  Progmp_runtime.Env.t ->
  unit
(** A fresh threaded-code instance of [prog] ({!Threaded.compile}, then
    {!Threaded.instantiate}); a specialized program falls back to
    [fallback] when the live subflow count differs. *)

val register_engines : unit -> unit
(** Register the "threaded" engine (verified bytecode compiled to a
    closure chain, no dispatch loop) with {!Progmp_runtime.Engine}, as a
    compile step (cached per program by the registry) and a
    scratch-only instantiate step. Compiles
    nothing itself. Idempotent; also runs automatically when this module is linked.
    Call it from binaries that select engines only by name, so the
    linker keeps this module. *)

val install_specialized :
  subflow_count:int -> Progmp_runtime.Scheduler.t -> Vm.prog
(** Compile the scheduler's program specialized for a constant subflow
    count and install it on the threaded engine, labelled
    ["threaded[k]"], falling back to the scheduler's previous engine
    when the live count differs. Returns the compiled program for
    inspection. Generic selection goes through
    [Scheduler.set_engine sched "threaded"]. *)
