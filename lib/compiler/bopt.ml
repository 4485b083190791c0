(** Bytecode middle-end: optimization passes over final {!Isa} code.

    The AST optimizer ([Progmp_lang.Optimize]) runs before lowering;
    nothing so far cleaned up after register allocation, and {!Emit}'s
    calling-convention lowering leaves a lot of chatter behind: every
    ALU result is computed in r0 and moved to its home, every spilled
    operand is reloaded even when the value is still in a register, and
    structured control flow produces jump-to-jump chains. The passes
    here — the classic bytecode-interpreter pipeline of Ertl & Gregg —
    remove that chatter and then fuse instruction pairs into
    the {!Isa} superinstructions:

    - {!thread_jumps}: jump-to-jump chains land on their final target,
      jumps to [Exit] become [Exit], jumps to the next instruction
      disappear;
    - {!propagate_copies}: forward copy/constant propagation within
      basic blocks, including stack slots (a reload of a slot whose
      value is still live in a register becomes a register move, which
      is usually then deleted) — the redundant-move elimination that
      cleans up regalloc spill/move chatter;
    - {!sink_alu_results}: the emit pattern "compute in scratch, move
      home" ([mov x, a; op x, y; mov d, x]) computes in the home
      register directly when the scratch is dead afterwards;
    - {!eliminate_dead_stores}: global liveness analysis deletes pure
      instructions whose destination is never read;
    - {!eliminate_dead_slot_stores}: stores to stack slots the program
      never loads go (the frame is private scratch, so they are
      unobservable) — spills whose every reload the copy propagator
      turned into a register move;
    - {!fuse}: peephole formation of [CallJcci] (load-field-then-
      compare) and [LdxJcci]/[LdxJcc] (fused compare-and-branch on
      spilled operands).

    Every pass maps verifier-accepted code to verifier-accepted code
    and is idempotent (enforced by test/test_compiler.ml on the whole
    zoo). Passes never delete an instruction with observable effect:
    only provable no-ops and dead pure definitions go, so decision
    parity with the unoptimized program is exact. *)

(* ------------------------------------------------------------------ *)
(* shared CFG helpers                                                  *)
(* ------------------------------------------------------------------ *)

let targets_of (i : Isa.instr) =
  match i with
  | Isa.Jmp t -> [ t ]
  | Isa.Jcc (_, _, _, t)
  | Isa.Jcci (_, _, _, t)
  | Isa.CallJcci (_, _, _, t)
  | Isa.LdxJcci (_, _, _, _, t)
  | Isa.LdxJcc (_, _, _, _, t) ->
      [ t ]
  | _ -> []

let retarget (i : Isa.instr) t =
  match i with
  | Isa.Jmp _ -> Isa.Jmp t
  | Isa.Jcc (c, a, b, _) -> Isa.Jcc (c, a, b, t)
  | Isa.Jcci (c, a, n, _) -> Isa.Jcci (c, a, n, t)
  | Isa.CallJcci (h, c, n, _) -> Isa.CallJcci (h, c, n, t)
  | Isa.LdxJcci (c, d, s, n, _) -> Isa.LdxJcci (c, d, s, n, t)
  | Isa.LdxJcc (c, a, d, s, _) -> Isa.LdxJcc (c, a, d, s, t)
  | i -> i

(* Is [pc] the target of any jump? Such instructions head a basic block
   and must keep whatever invariant the incoming edges rely on. *)
let jump_targets code =
  let t = Array.make (Array.length code) false in
  Array.iter
    (fun i -> List.iter (fun x -> t.(x) <- true) (targets_of i))
    code;
  t

(* Drop the instructions whose [keep] flag is false and remap every jump
   target. Only no-ops (w.r.t. machine state) may be dropped: a target
   pointing at a dropped instruction is redirected to the next kept one,
   which is exactly where execution would have ended up. *)
let compact code keep =
  let len = Array.length code in
  let new_pc = Array.make len 0 in
  let n = ref 0 in
  for pc = 0 to len - 1 do
    new_pc.(pc) <- !n;
    if keep.(pc) then incr n
  done;
  if !n = len then code
  else begin
    let out = Array.make !n Isa.Exit in
    for pc = 0 to len - 1 do
      if keep.(pc) then
        out.(new_pc.(pc)) <-
          (match targets_of code.(pc) with
          | [ t ] -> retarget code.(pc) new_pc.(t)
          | _ -> code.(pc))
    done;
    out
  end

(* Iterate [f] until the code stops changing: makes every pass
   idempotent by construction (a second application starts at the
   fixpoint). Structural equality is cheap at scheduler-program size. *)
let fix f code =
  let rec go code =
    let code' = f code in
    if code' = code then code else go code'
  in
  go code

(* ------------------------------------------------------------------ *)
(* jump threading                                                      *)
(* ------------------------------------------------------------------ *)

let thread_jumps_once (code : Isa.instr array) =
  let len = Array.length code in
  (* Follow Jmp chains to their final destination; a visited set guards
     against (unreachable but representable) Jmp cycles. *)
  let resolve t0 =
    let seen = Array.make len false in
    let rec go t =
      match code.(t) with
      | Isa.Jmp t' when not seen.(t) ->
          seen.(t) <- true;
          go t'
      | _ -> t
    in
    go t0
  in
  let code =
    Array.mapi
      (fun pc i ->
        match targets_of i with
        | [ t ] -> (
            let t' = resolve t in
            match (i, code.(t')) with
            | Isa.Jmp _, Isa.Exit -> Isa.Exit
            | _ -> if t' = pc then i else retarget i t')
        | _ -> i)
      code
  in
  (* Jumps to the very next instruction are no-ops. *)
  let keep = Array.make len true in
  Array.iteri
    (fun pc i ->
      match i with Isa.Jmp t when t = pc + 1 -> keep.(pc) <- false | _ -> ())
    code;
  compact code keep

let thread_jumps code = fix thread_jumps_once code

(* ------------------------------------------------------------------ *)
(* copy / constant propagation (local, per basic block)                *)
(* ------------------------------------------------------------------ *)

(* Forward walk with a per-block fact table:
   - [copy_of.(r)]: a register currently holding the same value as [r]
     (the canonical source of the copy), or -1;
   - [const_of.(r)]: the known constant in [r] (valid iff
     [has_const.(r)]);
   - [slot_reg]: stack slot -> register currently holding that slot's
     value (set by Stx and Ldx, the spill-chatter killer);
   - [pending_store]: stack slot -> pc of a store not yet observable —
     if the slot is overwritten before any read and before control can
     leave the straight line, that store was dead.
   Register/slot facts are reset at every jump target and survive the
   fall-through edge of a conditional branch (its only non-target
   successor); pending stores die at {e any} control transfer, because
   the taken path may read the slot. Helper calls never touch the VM
   stack, so slot facts survive them.

   Rewrites: uses are replaced by their canonical copy; moves from a
   register with a known constant rematerialize as [Movi]; [Alu]/[Jcc]
   whose right operand holds a known constant become their immediate
   forms (which is also what makes them fusable); reloads of a slot
   whose value is still in a register become moves; no-op moves,
   already-satisfied constant loads, redundant stores and dead local
   stores are deleted. *)
let propagate_copies_once (code : Isa.instr array) =
  let len = Array.length code in
  let is_target = jump_targets code in
  let nr = Isa.num_regs in
  let copy_of = Array.make nr (-1) in
  let const_of = Array.make nr 0 in
  let has_const = Array.make nr false in
  let slot_reg = Hashtbl.create 16 in
  let pending_store = Hashtbl.create 16 in
  let reset () =
    Array.fill copy_of 0 nr (-1);
    Array.fill has_const 0 nr false;
    Hashtbl.reset slot_reg;
    Hashtbl.reset pending_store
  in
  let resolve r = if copy_of.(r) >= 0 then copy_of.(r) else r in
  (* [r]'s value changes: nothing may claim to be a copy of it, it is
     a copy of nothing, and no slot is cached in it anymore. *)
  let kill r =
    copy_of.(r) <- -1;
    has_const.(r) <- false;
    for x = 0 to nr - 1 do
      if copy_of.(x) = r then copy_of.(x) <- -1
    done;
    Hashtbl.iter
      (fun s x -> if x = r then Hashtbl.remove slot_reg s)
      (Hashtbl.copy slot_reg)
  in
  let kill_caller_saved () =
    for r = 0 to 5 do
      kill r
    done
  in
  let keep = Array.make len true in
  let out = Array.copy code in
  for pc = 0 to len - 1 do
    if pc = 0 || is_target.(pc) then reset ();
    (match code.(pc) with
    | Isa.Mov (d, s) ->
        let s' = resolve s in
        if s' = d then keep.(pc) <- false
        else if has_const.(s') then begin
          let n = const_of.(s') in
          if has_const.(d) && const_of.(d) = n then keep.(pc) <- false
          else begin
            out.(pc) <- Isa.Movi (d, n);
            kill d;
            has_const.(d) <- true;
            const_of.(d) <- n
          end
        end
        else begin
          out.(pc) <- Isa.Mov (d, s');
          kill d;
          copy_of.(d) <- s'
        end
    | Isa.Movi (d, n) ->
        if has_const.(d) && const_of.(d) = n then keep.(pc) <- false
        else begin
          kill d;
          has_const.(d) <- true;
          const_of.(d) <- n
        end
    | Isa.Alu (op, d, s) ->
        let s' = resolve s in
        if has_const.(s') then out.(pc) <- Isa.Alui (op, d, const_of.(s'))
        else out.(pc) <- Isa.Alu (op, d, s');
        kill d
    | Isa.Alui (_, d, _) -> kill d
    | Isa.Jmp _ -> ()
    | Isa.Jcc (c, a, b, t) ->
        let a' = resolve a and b' = resolve b in
        if has_const.(b') then out.(pc) <- Isa.Jcci (c, a', const_of.(b'), t)
        else if has_const.(a') then
          out.(pc) <- Isa.Jcci (Isa.cond_swap c, b', const_of.(a'), t)
        else out.(pc) <- Isa.Jcc (c, a', b', t)
    | Isa.Jcci (c, a, n, t) -> out.(pc) <- Isa.Jcci (c, resolve a, n, t)
    | Isa.Call _ | Isa.CallJcci _ -> kill_caller_saved ()
    | Isa.Ldx (d, slot) -> (
        match Hashtbl.find_opt slot_reg slot with
        | Some r when r = d ->
            (* the slot's value is already in [d] *)
            keep.(pc) <- false
        | Some r ->
            (* still live in a register: the reload becomes a move (the
               slot is no longer read here, so a pending store to it
               stays dead-eligible) *)
            if has_const.(r) then begin
              let n = const_of.(r) in
              out.(pc) <- Isa.Movi (d, n);
              kill d;
              has_const.(d) <- true;
              const_of.(d) <- n
            end
            else begin
              out.(pc) <- Isa.Mov (d, r);
              kill d;
              copy_of.(d) <- r
            end
        | None ->
            Hashtbl.remove pending_store slot;
            kill d;
            Hashtbl.replace slot_reg slot d)
    | Isa.LdxJcci (_, d, slot, _, _) ->
        Hashtbl.remove pending_store slot;
        kill d
    | Isa.LdxJcc (c, a, d, slot, t) ->
        Hashtbl.remove pending_store slot;
        (* the load overwrites [d] before the comparison reads [a]: a
           copy held in [d] is no longer there *)
        let a' = resolve a in
        out.(pc) <- Isa.LdxJcc (c, (if a' = d then a else a'), d, slot, t);
        kill d
    | Isa.Stx (slot, r) -> (
        let r' = resolve r in
        match Hashtbl.find_opt slot_reg slot with
        | Some x when x = r' ->
            (* the slot already holds exactly this value *)
            keep.(pc) <- false
        | _ ->
            out.(pc) <- Isa.Stx (slot, r');
            (match Hashtbl.find_opt pending_store slot with
            | Some k -> keep.(k) <- false
            | None -> ());
            Hashtbl.replace pending_store slot pc;
            Hashtbl.replace slot_reg slot r')
    | Isa.Exit -> ());
    (* Register/slot facts flow across the fall-through edge of
       conditionals; pending stores die at any control transfer. *)
    match code.(pc) with
    | Isa.Jmp _ | Isa.Exit -> reset ()
    | Isa.Jcc _ | Isa.Jcci _ | Isa.CallJcci _ | Isa.LdxJcci _ | Isa.LdxJcc _
      ->
        Hashtbl.reset pending_store
    | _ -> ()
  done;
  compact out keep

let propagate_copies code = fix propagate_copies_once code

(* ------------------------------------------------------------------ *)
(* dead-store elimination (global liveness)                            *)
(* ------------------------------------------------------------------ *)

let reg_bit r = 1 lsl r

let caller_saved_mask =
  reg_bit 0 lor reg_bit 1 lor reg_bit 2 lor reg_bit 3 lor reg_bit 4
  lor reg_bit 5

(* (uses, defs) register masks. Helper calls "use" their argument
   registers and define r0 (plus clobbering r1-r5, handled at the
   transfer function). *)
let uses_defs (i : Isa.instr) =
  let args h =
    let rec go m k = if k = 0 then m else go (m lor reg_bit k) (k - 1) in
    go 0 (Isa.helper_arity h)
  in
  match i with
  | Isa.Mov (d, s) -> (reg_bit s, reg_bit d)
  | Isa.Movi (d, _) -> (0, reg_bit d)
  | Isa.Alu (_, d, s) -> (reg_bit d lor reg_bit s, reg_bit d)
  | Isa.Alui (_, d, _) -> (reg_bit d, reg_bit d)
  | Isa.Jmp _ -> (0, 0)
  | Isa.Jcc (_, a, b, _) -> (reg_bit a lor reg_bit b, 0)
  | Isa.Jcci (_, a, _, _) -> (reg_bit a, 0)
  | Isa.Call h -> (args h, caller_saved_mask)
  | Isa.CallJcci (h, _, _, _) -> (args h, caller_saved_mask)
  | Isa.Ldx (d, _) -> (0, reg_bit d)
  | Isa.LdxJcci (_, d, _, _, _) -> (0, reg_bit d)
  | Isa.LdxJcc (_, a, d, _, _) -> (reg_bit a, reg_bit d)
  | Isa.Stx (_, r) -> (reg_bit r, 0)
  | Isa.Exit -> (0, 0)

let successors len pc (i : Isa.instr) =
  match i with
  | Isa.Jmp t -> [ t ]
  | Isa.Exit -> []
  | Isa.Jcc (_, _, _, t)
  | Isa.Jcci (_, _, _, t)
  | Isa.CallJcci (_, _, _, t)
  | Isa.LdxJcci (_, _, _, _, t)
  | Isa.LdxJcc (_, _, _, _, t) ->
      if pc + 1 < len then [ t; pc + 1 ] else [ t ]
  | _ -> if pc + 1 < len then [ pc + 1 ] else []

(* Backward register-liveness dataflow to fixpoint; returns live-in
   masks per pc. *)
let liveness (code : Isa.instr array) =
  let len = Array.length code in
  let live_in = Array.make len 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    for pc = len - 1 downto 0 do
      let uses, defs = uses_defs code.(pc) in
      let out =
        List.fold_left
          (fun m s -> m lor live_in.(s))
          0
          (successors len pc code.(pc))
      in
      let inn = uses lor (out land lnot defs) in
      if inn <> live_in.(pc) then begin
        live_in.(pc) <- inn;
        changed := true
      end
    done
  done;
  live_in

(* A pure definition (no helper call, no store, no control flow) whose
   destination is dead can go. ALU ops are total here — division and
   shift out of range yield 0 rather than trapping — so deleting them
   never removes a fault. *)
let eliminate_dead_stores_once (code : Isa.instr array) =
  let len = Array.length code in
  let live_in = liveness code in
  let keep = Array.make len true in
  Array.iteri
    (fun pc i ->
      let live_out =
        List.fold_left (fun m s -> m lor live_in.(s)) 0 (successors len pc i)
      in
      match i with
      | Isa.Mov (d, _) | Isa.Movi (d, _) | Isa.Alu (_, d, _)
      | Isa.Alui (_, d, _) | Isa.Ldx (d, _) ->
          if live_out land reg_bit d = 0 then keep.(pc) <- false
      | _ -> ())
    code;
  compact code keep

let eliminate_dead_stores code = fix eliminate_dead_stores_once code

(* ------------------------------------------------------------------ *)
(* dead stack-slot stores                                              *)
(* ------------------------------------------------------------------ *)

(* A store to a slot the program never loads (no [Ldx]/[LdxJcci]/
   [LdxJcc] of that slot anywhere) is unobservable: the stack frame is
   private per-program scratch, so nothing outside the program can read
   it either. Spills whose every reload {!propagate_copies} turned into
   a register move leave such stores behind. *)
let eliminate_dead_slot_stores_once (code : Isa.instr array) =
  let loaded = Hashtbl.create 16 in
  Array.iter
    (fun i ->
      match i with
      | Isa.Ldx (_, s) | Isa.LdxJcci (_, _, s, _, _)
      | Isa.LdxJcc (_, _, _, s, _) ->
          Hashtbl.replace loaded s ()
      | _ -> ())
    code;
  let keep = Array.make (Array.length code) true in
  Array.iteri
    (fun pc i ->
      match i with
      | Isa.Stx (s, _) when not (Hashtbl.mem loaded s) -> keep.(pc) <- false
      | _ -> ())
    code;
  compact code keep

let eliminate_dead_slot_stores code = fix eliminate_dead_slot_stores_once code

(* ------------------------------------------------------------------ *)
(* ALU result sinking                                                  *)
(* ------------------------------------------------------------------ *)

(* {!Emit} computes every ALU result in a scratch register and moves it
   to its home afterwards: [mov x, a; op x, y; mov d, x]. When the
   scratch [x] is dead after the final move and no jump lands inside
   the triple, compute in [d] directly: [mov d, a; op d, y] — the
   trailing move goes, and when [a = d] the leading move becomes a
   no-op the next propagation round deletes. The triple may also be
   headed by [Movi] or [Ldx]. Sinking is blocked when the ALU's source
   operand is [d] itself (its old value would be clobbered by the new
   head); a source equal to [x] follows the result into [d]. *)
let sink_alu_results_once (code : Isa.instr array) =
  let len = Array.length code in
  let is_target = jump_targets code in
  let live_in = liveness code in
  let live_out pc =
    List.fold_left
      (fun m s -> m lor live_in.(s))
      0
      (successors len pc code.(pc))
  in
  let head_dst = function
    | Isa.Mov (d, _) | Isa.Movi (d, _) | Isa.Ldx (d, _) -> Some d
    | _ -> None
  in
  let with_dst i d =
    match i with
    | Isa.Mov (_, s) -> Isa.Mov (d, s)
    | Isa.Movi (_, n) -> Isa.Movi (d, n)
    | Isa.Ldx (_, slot) -> Isa.Ldx (d, slot)
    | i -> i
  in
  let keep = Array.make len true in
  let out = Array.copy code in
  let pc = ref 0 in
  while !pc < len - 2 do
    let p = !pc in
    let rewritten =
      if is_target.(p + 1) || is_target.(p + 2) then false
      else
        match (head_dst code.(p), code.(p + 1), code.(p + 2)) with
        | Some x, Isa.Alu (op, x1, y), Isa.Mov (d, x2)
          when x1 = x && x2 = x && d <> x && y <> d
               && live_out (p + 2) land reg_bit x = 0 ->
            out.(p) <- with_dst code.(p) d;
            out.(p + 1) <- Isa.Alu (op, d, if y = x then d else y);
            keep.(p + 2) <- false;
            true
        | Some x, Isa.Alui (op, x1, n), Isa.Mov (d, x2)
          when x1 = x && x2 = x && d <> x
               && live_out (p + 2) land reg_bit x = 0 ->
            out.(p) <- with_dst code.(p) d;
            out.(p + 1) <- Isa.Alui (op, d, n);
            keep.(p + 2) <- false;
            true
        | _ -> false
    in
    pc := if rewritten then p + 3 else p + 1
  done;
  compact out keep

let sink_alu_results code = fix sink_alu_results_once code

(* ------------------------------------------------------------------ *)
(* peephole superinstruction fusion                                    *)
(* ------------------------------------------------------------------ *)

(* Fuse an instruction with the branch that follows it when no jump
   lands between the two. The fused forms keep every architectural
   effect of the pair (the loaded/returned value stays in its register),
   so fusion needs no liveness information at all. *)
let fuse_once (code : Isa.instr array) =
  let len = Array.length code in
  let is_target = jump_targets code in
  let keep = Array.make len true in
  let out = Array.copy code in
  let pc = ref 0 in
  while !pc < len - 1 do
    let fused =
      if is_target.(!pc + 1) then None
      else
        match (code.(!pc), code.(!pc + 1)) with
        | Isa.Call h, Isa.Jcci (c, 0, n, t) ->
            Some (Isa.CallJcci (h, c, n, t))
        | Isa.Ldx (d, slot), Isa.Jcci (c, a, n, t) when a = d ->
            Some (Isa.LdxJcci (c, d, slot, n, t))
        | Isa.Ldx (d, slot), Isa.Jcc (c, a, b, t) when b = d && a <> d ->
            Some (Isa.LdxJcc (c, a, d, slot, t))
        | Isa.Ldx (d, slot), Isa.Jcc (c, a, b, t) when a = d && b <> d ->
            Some (Isa.LdxJcc (Isa.cond_swap c, b, d, slot, t))
        | _ -> None
    in
    match fused with
    | Some i ->
        out.(!pc) <- i;
        keep.(!pc + 1) <- false;
        pc := !pc + 2
    | None -> incr pc
  done;
  compact out keep

let fuse code = fix fuse_once code

(* ------------------------------------------------------------------ *)
(* the pipeline                                                        *)
(* ------------------------------------------------------------------ *)

(* The named passes, in pipeline order (exposed for the per-pass
   idempotence/acceptance property tests). *)
let passes =
  [
    ("thread_jumps", thread_jumps);
    ("propagate_copies", propagate_copies);
    ("sink_alu_results", sink_alu_results);
    ("eliminate_dead_stores", eliminate_dead_stores);
    ("eliminate_dead_slot_stores", eliminate_dead_slot_stores);
    ("fuse", fuse);
  ]

(* Cleanup passes feed each other (a propagated copy exposes a dead
   store; a sunk ALU result leaves a no-op move for the next
   propagation; a deleted store shortens a block), so they run as a
   joint fixpoint; fusion runs after them so peepholes see the final
   instruction sequence. A fused pair can in turn expose cleanup work
   (a fused load no longer keeps its slot's value in a register for the
   copy propagator), so cleanup-then-fuse repeats to a fixpoint too,
   which makes [optimize] idempotent by construction. *)
let optimize code =
  let cleanup code =
    eliminate_dead_slot_stores
      (eliminate_dead_stores
         (sink_alu_results (propagate_copies (thread_jumps code))))
  in
  fix (fun code -> fuse (fix cleanup code)) code
