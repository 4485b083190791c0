(** The threaded-code engine: verified {!Isa} programs compiled to
    chained OCaml closures — each instruction a direct call with its
    operands partially applied and its continuation captured, so
    execution has no dispatch loop at all (Ertl & Gregg threaded code;
    the repo's stand-in for the paper's eBPF JIT tier). Unsafe
    register/stack accesses are justified by the verifier's bounds
    proofs. *)

val default_max_steps : int
(** Back-edge budget per execution (= {!Vm.default_max_steps};
    straight-line progress between back-edges is bounded by program
    length, so this bounds total work like the reference {!Vm}'s
    per-instruction budget). *)

type code
(** A program's closure chain, built once: immutable and shareable
    across instances and domains. Each instruction closure takes the
    instance's scratch (registers, stack, packet-handle table, budget)
    as its argument. *)

val compile : ?max_steps:int -> Isa.instr array -> code
(** [compile code] runs the analysis (jump targets, call-site argument
    sources, liveness, slot-update fusion) and builds the closure chain.
    Callers must only pass verifier-accepted code. *)

val instantiate : code -> Progmp_runtime.Env.t -> unit
(** [instantiate code] allocates one instance's scratch and returns its
    decision function. An instance is not reentrant; run it once per
    prepared environment.
    @raise Vm.Fault at run time on invalid handles, bad queue codes or
    an exhausted budget — same failure surface as {!Vm.run}. *)
