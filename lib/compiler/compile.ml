(** Compiler driver: typed program -> verified bytecode, plus engine
    installation into the runtime's scheduler registry.

    Pipeline: {!Codegen.generate} (lowering + primitive fusion) ->
    {!Regalloc.allocate} (second-chance binpacking) -> {!Emit.emit}
    (calling-convention lowering, label resolution) -> {!Bopt.optimize}
    (bytecode middle-end: copy propagation, dead-store elimination,
    jump threading, superinstruction fusion) -> {!Verifier.verify} ->
    {!Threaded.compile} (closure chain, the JIT stand-in).

    Verification runs once, on the optimized program — exactly the
    code the threaded engine compiles. A program that fails
    verification is never installed — mirroring the kernel refusing to
    load an eBPF object. *)

exception Rejected of string

type stats = {
  vinstrs : int;  (** virtual instructions before lowering *)
  raw_instrs : int;  (** emitted instructions before the middle-end *)
  instrs : int;  (** final instruction count *)
  spill_slots : int;
  spilled_vregs : int;
}

let verify_or_reject what code =
  match Verifier.verify code with
  | [] -> ()
  | errors ->
      raise
        (Rejected
           (Fmt.str "verifier rejected the %s program:@\n%a" what
              Fmt.(list ~sep:(any "@\n") Verifier.pp_error)
              errors))

let compile_with_stats ?subflow_count (p : Progmp_lang.Tast.program) :
    Vm.prog * stats =
  (match subflow_count with
  | Some n when n < 0 ->
      invalid_arg (Fmt.str "subflow count must be non-negative, got %d" n)
  | _ -> ());
  let vcode = Codegen.generate ?subflow_count p in
  let alloc = Regalloc.allocate vcode in
  let raw = Emit.emit vcode alloc in
  let code = Bopt.optimize raw in
  verify_or_reject "compiled" code;
  ( Vm.make_prog ?specialized_for:subflow_count code,
    {
      vinstrs = Array.length vcode.Vcode.code;
      raw_instrs = Array.length raw;
      instrs = Array.length code;
      spill_slots = alloc.Regalloc.spill_slots;
      spilled_vregs = alloc.Regalloc.spilled;
    } )

let compile ?subflow_count p = fst (compile_with_stats ?subflow_count p)

(** A threaded-code instance of a compiled program. When the program
    was specialized for a constant subflow count (§4.1, "constant
    subflow number" optimization), executions with a different count
    fall back to [fallback] (normally the generic compiled or
    interpreted version), like the paper's JIT returning to the
    original version. *)
let engine ?fallback (prog : Vm.prog) : Progmp_runtime.Env.t -> unit =
  let run = Threaded.instantiate (Threaded.compile prog.Vm.code) in
  match (prog.Vm.specialized_for, fallback) with
  | None, _ -> run
  | Some k, fallback ->
      let fallback = Option.value fallback ~default:run in
      fun env ->
        if Array.length env.Progmp_runtime.Env.subflows <> k then fallback env
        else run env

(** Register the "threaded" engine with the runtime's
    {!Progmp_runtime.Engine} registry: verified bytecode compiled to a
    closure chain. It compiles once per program (the registry caches
    the result) and instantiates by allocating scratch only. Runs once
    when this module is linked; binaries that select engines purely by
    name call it explicitly so the linker cannot drop this module (and
    its registration) as unreferenced. *)
let register_engines =
  let registered = ref false in
  fun () ->
    if not !registered then begin
      registered := true;
      Progmp_runtime.Engine.register_compiled "threaded"
        ~caps:
          {
            Progmp_runtime.Engine.compiled = true;
            verified = true;
            description =
              "threaded-code engine: verified bytecode compiled to chained \
               closures, no dispatch loop";
          }
        ~compile:(fun program -> Threaded.compile (compile program).Vm.code)
        ~instantiate:Threaded.instantiate
    end

let () = register_engines ()

(** Compile [sched]'s program specialized for a constant subflow count
    (§4.1) and install an instance of the result, falling back to the
    scheduler's previous engine when the live count differs. Generic
    (unspecialized) selection goes through
    [Scheduler.set_engine sched "threaded"] instead. *)
let install_specialized ~subflow_count (sched : Progmp_runtime.Scheduler.t) =
  let previous = sched.Progmp_runtime.Scheduler.run in
  let prog = compile ~subflow_count sched.Progmp_runtime.Scheduler.program in
  Progmp_runtime.Scheduler.install_custom sched
    ~name:(Fmt.str "threaded[%d]" subflow_count)
    (engine ~fallback:previous prog);
  prog
