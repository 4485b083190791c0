(** Bytecode middle-end: optimization passes over final {!Isa} code,
    run between {!Emit.emit} and {!Verifier.verify}.

    Every pass maps verifier-accepted code to verifier-accepted code,
    preserves decision behavior exactly, and is idempotent (property-
    tested over the scheduler zoo). *)

val thread_jumps : Isa.instr array -> Isa.instr array
(** Jump-to-jump chains land on their final target; jumps to [Exit]
    become [Exit]; jumps to the next instruction disappear. *)

val propagate_copies : Isa.instr array -> Isa.instr array
(** Forward copy/constant propagation within basic blocks, including
    stack slots: reloads of a slot whose value is still held in a
    register become register moves (usually deleted by the next pass) —
    the regalloc spill/move-chatter cleanup. *)

val sink_alu_results : Isa.instr array -> Isa.instr array
(** The emit pattern "compute in scratch, move home"
    ([mov x, a; op x, y; mov d, x]) computes in the home register
    directly when the scratch is dead after the triple. *)

val eliminate_dead_stores : Isa.instr array -> Isa.instr array
(** Global liveness analysis; pure definitions whose destination is
    never read are deleted. *)

val eliminate_dead_slot_stores : Isa.instr array -> Isa.instr array
(** Stores to stack slots the program never loads are deleted: the
    frame is private per-program scratch, so such stores are
    unobservable. Clears the stores of spills whose every reload
    {!propagate_copies} turned into a register move. *)

val fuse : Isa.instr array -> Isa.instr array
(** Peephole formation of the {!Isa} superinstructions: [CallJcci]
    (load-field-then-compare) and [LdxJcci]/[LdxJcc] (fused
    compare-and-branch on spilled operands). Every fusable pair is
    formed. *)

val passes : (string * (Isa.instr array -> Isa.instr array)) list
(** The named passes above, in pipeline order (for property tests). *)

val optimize : Isa.instr array -> Isa.instr array
(** The full middle-end: cleanup passes to a joint fixpoint, then
    {!fuse}, repeated until neither changes the code (so [optimize] is
    idempotent). *)
