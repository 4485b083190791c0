(** The threaded-code engine — the repo's stand-in for the paper's
    eBPF JIT tier (execution alternative 2/3 of §4.1), and the only
    registered engine that runs verified bytecode.

    A verified {!Isa} program is compiled once into an array of
    chained OCaml closures: every instruction becomes a direct call
    with its operands partially applied, and its continuation — the
    closure of the fall-through or jump target — captured in its
    environment, so at run time there is {e no dispatch at all}: no
    opcode match, no pc, just closure calls (classic threaded code,
    Ertl & Gregg — the same lineage as {!Bopt}'s superinstructions).

    The chain is never written once built. Every closure takes the
    running instance's scratch — a {!state} record with the register
    file, stack, packet-handle table and step budget — as its one
    argument, so one compiled chain serves any number of instances, on
    any domain, and {!instantiate} only allocates a [state].

    Register and stack accesses are unchecked. That is sound because
    programs are only compiled from verifier-accepted code, so every
    register index is < [Isa.num_regs], every stack slot <
    [Isa.stack_words], every jump target is a valid instruction, and
    the program cannot fall off the end. Closures are built
    back-to-front, so fall-through and forward-jump continuations bind
    directly; back-edges go through one extra indirection (the target
    closure does not exist yet when the jump is compiled) and are the
    only place the step budget is charged — straight-line progress
    between back-edges is bounded by the program length, so
    budget-per-back-edge bounds total work just like the reference
    {!Vm}'s budget-per-instruction.

    Two further liberties over the reference {!Vm}, both invisible to the
    program (the type system never lets a packet handle convert to an
    observable integer, and handle identity is preserved):

    - packet handles are indices into a per-execution registration
      array, found through a generation stamp cached on the packet
      itself instead of {!Vm}'s [Hashtbl] — registration and
      dereference allocate nothing and never hash;
    - helper call sites are specialized at compile time: arguments
      whose source is discoverable by a backward scan within the basic
      block (constants — queue codes, property codes, register
      indices —, stable register copies, stable stack slots) are baked
      into the closure, and feeding instructions nothing else reads
      are skipped entirely (an absorption-aware liveness pass). *)

open Progmp_runtime

let default_max_steps = Vm.default_max_steps

(* Process-global generation sequence for the packet-handle stamp cache
   ([Packet.reg_stamp]): every execution of every compiled program draws
   a fresh stamp, so stamps can never collide across program instances
   or domains (packets themselves are domain-local). *)
let run_gen = Atomic.make 1

(* Where a helper argument's value comes from at the call site: a
   compile-time constant, another register whose value is untouched
   since the copy, a stack slot unmodified since the reload, or the
   argument register itself (no specialization). *)
type arg_src = Const of int | From_reg of int | From_slot of int | Dyn

let invalid_handle h = raise (Vm.Fault (Fmt.str "invalid packet handle %d" h))

let bad_queue c = raise (Vm.Fault (Fmt.str "bad queue code %d" c))

(* One instance's scratch, passed to every instruction closure: the
   closure chain is built once per program and shared by all instances
   (and domains); only this record is per instance. *)
type state = {
  regs : int array;
  stack : int array;
  mutable env : Env.t;
  mutable fuel : int;  (** back-edges left in this execution *)
  mutable pkts : Packet.t array;  (** handle h (1-based) -> pkts.(h - 1) *)
  mutable count : int;  (** handles minted in this execution *)
  mutable gen : int;  (** this execution's stamp *)
}

type code = { entry : state -> unit; max_steps : int; stack_words : int }

(* -------------------- packet handle table -------------------- *)
(* Packet -> handle through a generation stamp cached on the packet
   itself ([Packet.reg_stamp] / [reg_handle]): registration is two loads
   and a compare, reset is one counter bump. Stamps come from a
   process-global atomic sequence ({!run_gen}), so an execution of one
   instance can never mistake another execution's stamp — or a stale
   one — for its own. The same packet always maps to the same handle
   within an execution (packet equality in the DSL compares handles),
   and handles never outlive the execution that minted them (the type
   system cannot store a packet in a register). *)
let register_packet st (p : Packet.t) =
  if p.Packet.reg_stamp = st.gen then p.Packet.reg_handle
  else begin
    let c = st.count in
    if c = Array.length st.pkts then begin
      let np = Array.make (2 * c) Packet.dummy in
      Array.blit st.pkts 0 np 0 c;
      st.pkts <- np
    end;
    Array.unsafe_set st.pkts c p;
    st.count <- c + 1;
    p.Packet.reg_stamp <- st.gen;
    p.Packet.reg_handle <- c + 1;
    c + 1
  end

(* ----------------------- helper bodies ----------------------- *)
(* Same graceful-failure semantics as [Vm.exec_helper]: a NULL handle
   (0) reads as 0 / makes the call a no-op, a nonzero handle this
   execution did not mint faults, subflow handles out of range read as
   NULL. *)
let queue_sel c : Env.t -> Pqueue.t =
  match c with
  | 0 -> fun e -> e.Env.q
  | 1 -> fun e -> e.Env.qu
  | 2 -> fun e -> e.Env.rq
  | c -> fun _ -> bad_queue c

let queue_rt (e : Env.t) c =
  match c with 0 -> e.Env.q | 1 -> e.Env.qu | 2 -> e.Env.rq | c -> bad_queue c

let q_nth st q i =
  if i >= 0 && i < Pqueue.length q then
    register_packet st (Pqueue.unsafe_get q i)
  else 0

let q_remove st q i =
  match Pqueue.remove_at q i with
  | Some p ->
      Env.record_pop st.env q p;
      register_packet st p
  | None -> 0

let pkt_reader (p : Progmp_lang.Props.packet_prop) : Packet.t -> int =
  match p with
  | Progmp_lang.Props.Size -> fun p -> p.Packet.size
  | Progmp_lang.Props.Seq -> fun p -> p.Packet.seq
  | Progmp_lang.Props.Sent_count -> fun p -> p.Packet.sent_count
  | Progmp_lang.Props.User_prop i -> fun p -> Packet.user_prop p i

(* [Some p] without the option: callers branch on the NULL handle
   first. *)
let deref st h =
  if h > 0 && h <= st.count then Array.unsafe_get st.pkts (h - 1)
  else invalid_handle h

let jump_targets (code : Isa.instr array) =
  let t = Array.make (Array.length code + 1) false in
  Array.iter
    (fun (i : Isa.instr) ->
      match i with
      | Isa.Jmp x
      | Isa.Jcc (_, _, _, x)
      | Isa.Jcci (_, _, _, x)
      | Isa.CallJcci (_, _, _, x)
      | Isa.LdxJcci (_, _, _, _, x)
      | Isa.LdxJcc (_, _, _, _, x) ->
          t.(x) <- true
      | _ -> ())
    code;
  t

let compile ?(max_steps = default_max_steps) (code : Isa.instr array) :
    code =
  let n = Array.length code in
  if n = 0 then { entry = (fun _ -> ()); max_steps; stack_words = 0 }
  else begin
    let is_target = jump_targets code in
    (* Argument-source discovery for call-site specialization: where
       does the value of [r] at [pc] come from? A straight backward scan
       in the same basic block finds the defining instruction before any
       redefinition of [r], any control transfer that does not fall
       through, or any instruction another edge can land behind
       (conservatively, any jump target invalidates the scan — a side
       entry need not have executed the def). Helper calls write r0 only
       at run time, so they kill just r0 here.

       - [Movi r, c]: the argument is the constant [c] (queue codes,
         property codes and register indices specialize the helper);
       - [Mov r, s] with [s] unchanged up to the call: the closure reads
         [s] directly;
       - [Ldx r, slot] with no store to [slot] up to the call (helpers
         never touch the VM stack): the closure reads the slot directly.

       In the last two cases (and for constants) the feeding instruction
       no longer needs to execute for the call's sake; if nothing else
       reads its destination it is skipped entirely (the liveness pass
       below, which counts only the unabsorbed runtime reads of each
       call). *)
    let defines r (i : Isa.instr) =
      match i with
      | Isa.Mov (d, _) | Isa.Movi (d, _) | Isa.Alu (_, d, _)
      | Isa.Alui (_, d, _) | Isa.Ldx (d, _)
      | Isa.LdxJcci (_, d, _, _, _) | Isa.LdxJcc (_, _, d, _, _) ->
          d = r
      | Isa.Call _ | Isa.CallJcci _ -> r = 0
      | Isa.Jmp _ | Isa.Jcc _ | Isa.Jcci _ | Isa.Stx _ | Isa.Exit -> false
    in
    let arg_source pc r : arg_src =
      let reg_stable s j =
        let ok = ref true in
        for k = j + 1 to pc - 1 do
          if defines s code.(k) then ok := false
        done;
        !ok
      in
      let slot_stable sl j =
        let ok = ref true in
        for k = j + 1 to pc - 1 do
          match code.(k) with
          | Isa.Stx (s, _) when s = sl -> ok := false
          | _ -> ()
        done;
        !ok
      in
      let rec scan j =
        if j < 0 || is_target.(j + 1) then Dyn
        else
          match code.(j) with
          | Isa.Movi (d, c) when d = r -> Const c
          | Isa.Mov (d, s) when d = r ->
              if reg_stable s j then From_reg s else Dyn
          | Isa.Ldx (d, sl) when d = r ->
              if slot_stable sl j then From_slot sl else Dyn
          | Isa.Jmp _ | Isa.Exit -> Dyn
          | i -> if defines r i then Dyn else scan (j - 1)
      in
      scan (pc - 1)
    in
    let arg_getter r (s : arg_src) : state -> int =
      match s with
      | Const c -> fun _ -> c
      | From_reg s -> fun st -> Array.unsafe_get st.regs s
      | From_slot sl -> fun st -> Array.unsafe_get st.stack sl
      | Dyn -> fun st -> Array.unsafe_get st.regs r
    in
    (* Registers the specialized closure still reads at run time. *)
    let arg_use r (s : arg_src) =
      match s with
      | Const _ | From_slot _ -> 0
      | From_reg s -> 1 lsl s
      | Dyn -> 1 lsl r
    in

    (* The executable body of a helper call at [pc], specialized on the
       discovered argument sources, paired with the mask of registers it
       actually reads at run time. *)
    let helper_exec pc (h : Isa.helper) : (state -> int) * int =
      let s1 = arg_source pc 1 and s2 = arg_source pc 2 in
      let g1 = arg_getter 1 s1 and g2 = arg_getter 2 s2 in
      let u1 = arg_use 1 s1 and u2 = arg_use 2 s2 in
      match h with
      | Isa.H_q_nth -> (
          match s1 with
          | Const c ->
              (* flatten the index getter too: this is the inner loop of
                 every queue FILTER/MIN scan *)
              let sel = queue_sel c in
              let exec =
                match s2 with
                | Const i -> fun st -> q_nth st (sel st.env) i
                | From_reg s ->
                    fun st -> q_nth st (sel st.env) (Array.unsafe_get st.regs s)
                | From_slot sl ->
                    fun st -> q_nth st (sel st.env) (Array.unsafe_get st.stack sl)
                | Dyn -> fun st -> q_nth st (sel st.env) (Array.unsafe_get st.regs 2)
              in
              (exec, u2)
          | _ -> ((fun st -> q_nth st (queue_rt st.env (g1 st)) (g2 st)), u1 lor u2))
      | Isa.H_q_remove -> (
          match s1 with
          | Const c ->
              let sel = queue_sel c in
              ((fun st -> q_remove st (sel st.env) (g2 st)), u2)
          | _ ->
              ((fun st -> q_remove st (queue_rt st.env (g1 st)) (g2 st)), u1 lor u2))
      | Isa.H_sbf_count ->
          ((fun st -> Array.length st.env.Env.subflows), 0)
      | Isa.H_sbf_prop -> (
          match s2 with
          | Const c ->
              let prop = Isa.sbf_prop_of_code c in
              let body st h =
                let sbfs = st.env.Env.subflows in
                if h > 0 && h <= Array.length sbfs then
                  Subflow_view.prop_int (Array.unsafe_get sbfs (h - 1)) prop
                else 0
              in
              let exec =
                match s1 with
                | Const h -> fun st -> body st h
                | From_reg s -> fun st -> body st (Array.unsafe_get st.regs s)
                | From_slot sl -> fun st -> body st (Array.unsafe_get st.stack sl)
                | Dyn -> fun st -> body st (Array.unsafe_get st.regs 1)
              in
              (exec, u1)
          | _ ->
              ( (fun st ->
                  let h = g1 st in
                  let sbfs = st.env.Env.subflows in
                  if h > 0 && h <= Array.length sbfs then
                    Subflow_view.prop_int sbfs.(h - 1)
                      (Isa.sbf_prop_of_code (g2 st))
                  else 0),
                u1 lor u2 ))
      | Isa.H_pkt_prop -> (
          match s2 with
          | Const c ->
              let read = pkt_reader (Isa.pkt_prop_of_code c) in
              let exec =
                match s1 with
                | Const h -> if h = 0 then fun _ -> 0 else fun st -> read (deref st h)
                | From_reg s ->
                    fun st ->
                      let h = Array.unsafe_get st.regs s in
                      if h = 0 then 0 else read (deref st h)
                | From_slot sl ->
                    fun st ->
                      let h = Array.unsafe_get st.stack sl in
                      if h = 0 then 0 else read (deref st h)
                | Dyn ->
                    fun st ->
                      let h = Array.unsafe_get st.regs 1 in
                      if h = 0 then 0 else read (deref st h)
              in
              (exec, u1)
          | _ ->
              ( (fun st ->
                  let h = g1 st in
                  if h = 0 then 0
                  else
                    let p = deref st h in
                    pkt_reader (Isa.pkt_prop_of_code (g2 st)) p),
                u1 lor u2 ))
      | Isa.H_sent_on ->
          ( (fun st ->
              let hp = g1 st and hs = g2 st in
              if hp = 0 then 0
              else
                let p = deref st hp in
                let sbfs = st.env.Env.subflows in
                if
                  hs > 0
                  && hs <= Array.length sbfs
                  && Packet.sent_on p
                       ~sbf_id:(Array.unsafe_get sbfs (hs - 1)).Subflow_view.id
                then 1
                else 0),
            u1 lor u2 )
      | Isa.H_has_window ->
          ( (fun st ->
              let hs = g1 st and hp = g2 st in
              if hp = 0 then 0
              else
                let p = deref st hp in
                let sbfs = st.env.Env.subflows in
                if
                  hs > 0
                  && hs <= Array.length sbfs
                  && Subflow_view.has_window_for
                       (Array.unsafe_get sbfs (hs - 1))
                       p
                then 1
                else 0),
            u1 lor u2 )
      | Isa.H_push ->
          ( (fun st ->
              let hs = g1 st and hp = g2 st in
              if hp <> 0 then begin
                let p = deref st hp in
                let sbfs = st.env.Env.subflows in
                if hs > 0 && hs <= Array.length sbfs then
                  Env.emit_push st.env
                    ~sbf_id:(Array.unsafe_get sbfs (hs - 1)).Subflow_view.id
                    p
              end;
              0),
            u1 lor u2 )
      | Isa.H_drop ->
          ( (fun st ->
              let hp = g1 st in
              if hp <> 0 then Env.emit_drop st.env (deref st hp);
              0),
            u1 )
      | Isa.H_get_reg -> (
          match s1 with
          | Const c -> ((fun st -> Env.get_register st.env c), 0)
          | _ -> ((fun st -> Env.get_register st.env (g1 st)), u1))
      | Isa.H_set_reg ->
          ( (fun st ->
              Env.set_register st.env (g1 st) (g2 st);
              0),
            u1 lor u2 )
    in

    (* ------------------- specialization analysis ------------------ *)
    (* Specialize every call site up front, remembering which registers
       each specialized closure still reads at run time. *)
    let execs = Array.make n (fun _ -> 0) in
    let call_uses = Array.make n 0 in
    Array.iteri
      (fun pc (i : Isa.instr) ->
        match i with
        | Isa.Call h | Isa.CallJcci (h, _, _, _) ->
            let exec, uses = helper_exec pc h in
            execs.(pc) <- exec;
            call_uses.(pc) <- uses
        | _ -> ())
      code;

    (* Backward register-liveness dataflow, with call sites using only
       their unabsorbed runtime reads. Calls define the caller-saved
       registers: the verifier marks r1-r5 (and r0) uninitialized after
       every call, so accepted programs never read them across one.
       Feeding instructions whose destination is dead once its consumer
       absorbed the value are pure (register moves, constant loads,
       bounds-verified slot reloads) and compile to nothing: their
       continuation slot aliases the next instruction's, so jumps onto
       them still work. *)
    let bit r = 1 lsl r in
    let caller_saved = bit 0 lor bit 1 lor bit 2 lor bit 3 lor bit 4 lor bit 5 in
    let uses_defs_at pc =
      match code.(pc) with
      | Isa.Mov (d, s) -> (bit s, bit d)
      | Isa.Movi (d, _) -> (0, bit d)
      | Isa.Alu (_, d, s) -> (bit d lor bit s, bit d)
      | Isa.Alui (_, d, _) -> (bit d, bit d)
      | Isa.Jmp _ -> (0, 0)
      | Isa.Jcc (_, a, b, _) -> (bit a lor bit b, 0)
      | Isa.Jcci (_, a, _, _) -> (bit a, 0)
      | Isa.Call _ | Isa.CallJcci _ -> (call_uses.(pc), caller_saved)
      | Isa.Ldx (d, _) -> (0, bit d)
      | Isa.LdxJcci (_, d, _, _, _) -> (0, bit d)
      | Isa.LdxJcc (_, a, d, _, _) -> (bit a, bit d)
      | Isa.Stx (_, r) -> (bit r, 0)
      | Isa.Exit -> (0, 0)
    in
    let successors pc =
      match code.(pc) with
      | Isa.Jmp t -> [ t ]
      | Isa.Exit -> []
      | Isa.Jcc (_, _, _, t)
      | Isa.Jcci (_, _, _, t)
      | Isa.CallJcci (_, _, _, t)
      | Isa.LdxJcci (_, _, _, _, t)
      | Isa.LdxJcc (_, _, _, _, t) ->
          if pc + 1 < n then [ t; pc + 1 ] else [ t ]
      | _ -> if pc + 1 < n then [ pc + 1 ] else []
    in
    let live_in = Array.make n 0 in
    let changed = ref true in
    while !changed do
      changed := false;
      for pc = n - 1 downto 0 do
        let uses, defs = uses_defs_at pc in
        let out =
          List.fold_left (fun m s -> m lor live_in.(s)) 0 (successors pc)
        in
        let inn = uses lor (out land lnot defs) in
        if inn <> live_in.(pc) then begin
          live_in.(pc) <- inn;
          changed := true
        end
      done
    done;
    let live_out pc =
      List.fold_left (fun m s -> m lor live_in.(s)) 0 (successors pc)
    in
    let dead = Array.make n false in
    Array.iteri
      (fun pc (i : Isa.instr) ->
        match i with
        | Isa.Mov (d, _) | Isa.Movi (d, _) | Isa.Ldx (d, _) ->
            if live_out pc land bit d = 0 then dead.(pc) <- true
        | _ -> ())
      code;

    (* Slot-increment fusion: [ldx r, s; alui op r, i; stx s, r] with
       nothing landing inside the triple and [r] dead afterwards is one
       in-place update of the slot. *)
    let alui_fn (op : Isa.aluop) i : int -> int =
      match op with
      | Isa.Add -> fun v -> v + i
      | Isa.Sub -> fun v -> v - i
      | Isa.Mul -> fun v -> v * i
      | Isa.Div -> if i = 0 then fun _ -> 0 else fun v -> v / i
      | Isa.Mod -> if i = 0 then fun _ -> 0 else fun v -> v mod i
      | Isa.And -> fun v -> v land i
      | Isa.Or -> fun v -> v lor i
      | Isa.Xor -> fun v -> v lxor i
      | Isa.Lsh -> if i < 0 || i >= 63 then fun _ -> 0 else fun v -> v lsl i
      | Isa.Rsh -> if i < 0 || i >= 63 then fun _ -> 0 else fun v -> v asr i
    in
    let slot_update = Array.make n None in
    for pc = 0 to n - 3 do
      match (code.(pc), code.(pc + 1), code.(pc + 2)) with
      | Isa.Ldx (r, s), Isa.Alui (op, r', i), Isa.Stx (s', r'')
        when r = r' && r = r'' && s = s'
             && (not is_target.(pc + 1))
             && (not is_target.(pc + 2))
             && live_out (pc + 2) land bit r = 0 ->
          slot_update.(pc) <- Some (s, alui_fn op i)
      | _ -> ()
    done;

    (* ---------------------- closure emission --------------------- *)
    let conts = Array.make (n + 1) (fun _ -> ()) in
    (* Continuation of a transfer from [pc] to [t]: forward targets are
       already compiled (we build back-to-front) and bind directly;
       back-edges indirect through the array and pay the step budget. *)
    let goto pc t =
      if t > pc then Array.unsafe_get conts t
      else fun st ->
        let f = st.fuel - 1 in
        if f < 0 then raise (Vm.Fault "step budget exhausted");
        st.fuel <- f;
        (Array.unsafe_get conts t) st
    in
    let alu op d s next =
      match (op : Isa.aluop) with
      | Isa.Add ->
          fun st ->
            Array.unsafe_set st.regs d
              (Array.unsafe_get st.regs d + Array.unsafe_get st.regs s);
            next st
      | Isa.Sub ->
          fun st ->
            Array.unsafe_set st.regs d
              (Array.unsafe_get st.regs d - Array.unsafe_get st.regs s);
            next st
      | Isa.Mul ->
          fun st ->
            Array.unsafe_set st.regs d
              (Array.unsafe_get st.regs d * Array.unsafe_get st.regs s);
            next st
      | Isa.Div ->
          fun st ->
            let b = Array.unsafe_get st.regs s in
            Array.unsafe_set st.regs d
              (if b = 0 then 0 else Array.unsafe_get st.regs d / b);
            next st
      | Isa.Mod ->
          fun st ->
            let b = Array.unsafe_get st.regs s in
            Array.unsafe_set st.regs d
              (if b = 0 then 0 else Array.unsafe_get st.regs d mod b);
            next st
      | Isa.And ->
          fun st ->
            Array.unsafe_set st.regs d
              (Array.unsafe_get st.regs d land Array.unsafe_get st.regs s);
            next st
      | Isa.Or ->
          fun st ->
            Array.unsafe_set st.regs d
              (Array.unsafe_get st.regs d lor Array.unsafe_get st.regs s);
            next st
      | Isa.Xor ->
          fun st ->
            Array.unsafe_set st.regs d
              (Array.unsafe_get st.regs d lxor Array.unsafe_get st.regs s);
            next st
      | Isa.Lsh ->
          fun st ->
            let b = Array.unsafe_get st.regs s in
            Array.unsafe_set st.regs d
              (if b < 0 || b >= 63 then 0 else Array.unsafe_get st.regs d lsl b);
            next st
      | Isa.Rsh ->
          fun st ->
            let b = Array.unsafe_get st.regs s in
            Array.unsafe_set st.regs d
              (if b < 0 || b >= 63 then 0 else Array.unsafe_get st.regs d asr b);
            next st
    in
    let alui op d i next =
      match (op : Isa.aluop) with
      | Isa.Add -> fun st -> Array.unsafe_set st.regs d (Array.unsafe_get st.regs d + i); next st
      | Isa.Sub -> fun st -> Array.unsafe_set st.regs d (Array.unsafe_get st.regs d - i); next st
      | Isa.Mul -> fun st -> Array.unsafe_set st.regs d (Array.unsafe_get st.regs d * i); next st
      | Isa.Div ->
          if i = 0 then (fun st -> Array.unsafe_set st.regs d 0; next st)
          else fun st -> Array.unsafe_set st.regs d (Array.unsafe_get st.regs d / i); next st
      | Isa.Mod ->
          if i = 0 then (fun st -> Array.unsafe_set st.regs d 0; next st)
          else fun st -> Array.unsafe_set st.regs d (Array.unsafe_get st.regs d mod i); next st
      | Isa.And -> fun st -> Array.unsafe_set st.regs d (Array.unsafe_get st.regs d land i); next st
      | Isa.Or -> fun st -> Array.unsafe_set st.regs d (Array.unsafe_get st.regs d lor i); next st
      | Isa.Xor -> fun st -> Array.unsafe_set st.regs d (Array.unsafe_get st.regs d lxor i); next st
      | Isa.Lsh ->
          if i < 0 || i >= 63 then (fun st -> Array.unsafe_set st.regs d 0; next st)
          else fun st -> Array.unsafe_set st.regs d (Array.unsafe_get st.regs d lsl i); next st
      | Isa.Rsh ->
          if i < 0 || i >= 63 then (fun st -> Array.unsafe_set st.regs d 0; next st)
          else fun st -> Array.unsafe_set st.regs d (Array.unsafe_get st.regs d asr i); next st
    in
    let jcc_rr c a b taken fall =
      match (c : Isa.cond) with
      | Isa.Jeq -> fun st -> if Array.unsafe_get st.regs a = Array.unsafe_get st.regs b then taken st else fall st
      | Isa.Jne -> fun st -> if Array.unsafe_get st.regs a <> Array.unsafe_get st.regs b then taken st else fall st
      | Isa.Jlt -> fun st -> if Array.unsafe_get st.regs a < Array.unsafe_get st.regs b then taken st else fall st
      | Isa.Jle -> fun st -> if Array.unsafe_get st.regs a <= Array.unsafe_get st.regs b then taken st else fall st
      | Isa.Jgt -> fun st -> if Array.unsafe_get st.regs a > Array.unsafe_get st.regs b then taken st else fall st
      | Isa.Jge -> fun st -> if Array.unsafe_get st.regs a >= Array.unsafe_get st.regs b then taken st else fall st
    in
    (* A register move immediately followed by a compare-and-branch runs
       as one closure (the branch's own closure still exists, so jumps
       landing on it are unaffected). *)
    let mov_jcci d s c a i taken fall =
      match (c : Isa.cond) with
      | Isa.Jeq -> fun st -> Array.unsafe_set st.regs d (Array.unsafe_get st.regs s); if Array.unsafe_get st.regs a = i then taken st else fall st
      | Isa.Jne -> fun st -> Array.unsafe_set st.regs d (Array.unsafe_get st.regs s); if Array.unsafe_get st.regs a <> i then taken st else fall st
      | Isa.Jlt -> fun st -> Array.unsafe_set st.regs d (Array.unsafe_get st.regs s); if Array.unsafe_get st.regs a < i then taken st else fall st
      | Isa.Jle -> fun st -> Array.unsafe_set st.regs d (Array.unsafe_get st.regs s); if Array.unsafe_get st.regs a <= i then taken st else fall st
      | Isa.Jgt -> fun st -> Array.unsafe_set st.regs d (Array.unsafe_get st.regs s); if Array.unsafe_get st.regs a > i then taken st else fall st
      | Isa.Jge -> fun st -> Array.unsafe_set st.regs d (Array.unsafe_get st.regs s); if Array.unsafe_get st.regs a >= i then taken st else fall st
    in
    let jcc_ri c a i taken fall =
      match (c : Isa.cond) with
      | Isa.Jeq -> fun st -> if Array.unsafe_get st.regs a = i then taken st else fall st
      | Isa.Jne -> fun st -> if Array.unsafe_get st.regs a <> i then taken st else fall st
      | Isa.Jlt -> fun st -> if Array.unsafe_get st.regs a < i then taken st else fall st
      | Isa.Jle -> fun st -> if Array.unsafe_get st.regs a <= i then taken st else fall st
      | Isa.Jgt -> fun st -> if Array.unsafe_get st.regs a > i then taken st else fall st
      | Isa.Jge -> fun st -> if Array.unsafe_get st.regs a >= i then taken st else fall st
    in
    let call_jcci exec c i taken fall =
      match (c : Isa.cond) with
      | Isa.Jeq -> fun st -> let r = exec st in Array.unsafe_set st.regs 0 r; if r = i then taken st else fall st
      | Isa.Jne -> fun st -> let r = exec st in Array.unsafe_set st.regs 0 r; if r <> i then taken st else fall st
      | Isa.Jlt -> fun st -> let r = exec st in Array.unsafe_set st.regs 0 r; if r < i then taken st else fall st
      | Isa.Jle -> fun st -> let r = exec st in Array.unsafe_set st.regs 0 r; if r <= i then taken st else fall st
      | Isa.Jgt -> fun st -> let r = exec st in Array.unsafe_set st.regs 0 r; if r > i then taken st else fall st
      | Isa.Jge -> fun st -> let r = exec st in Array.unsafe_set st.regs 0 r; if r >= i then taken st else fall st
    in
    (* [call h; mov d, r0; jcci c, a, i, t] with [a] one of the two
       registers holding the call result runs as one closure — the shape
       the frontend emits when a helper result is both kept and
       immediately tested (the FILTER scan's null check). The mov's and
       branch's own closures still exist for incoming jumps. *)
    let call_mov_jcci exec d c i taken fall =
      match (c : Isa.cond) with
      | Isa.Jeq -> fun st -> let r = exec st in Array.unsafe_set st.regs 0 r; Array.unsafe_set st.regs d r; if r = i then taken st else fall st
      | Isa.Jne -> fun st -> let r = exec st in Array.unsafe_set st.regs 0 r; Array.unsafe_set st.regs d r; if r <> i then taken st else fall st
      | Isa.Jlt -> fun st -> let r = exec st in Array.unsafe_set st.regs 0 r; Array.unsafe_set st.regs d r; if r < i then taken st else fall st
      | Isa.Jle -> fun st -> let r = exec st in Array.unsafe_set st.regs 0 r; Array.unsafe_set st.regs d r; if r <= i then taken st else fall st
      | Isa.Jgt -> fun st -> let r = exec st in Array.unsafe_set st.regs 0 r; Array.unsafe_set st.regs d r; if r > i then taken st else fall st
      | Isa.Jge -> fun st -> let r = exec st in Array.unsafe_set st.regs 0 r; Array.unsafe_set st.regs d r; if r >= i then taken st else fall st
    in
    let ldx_jcci c d slot i taken fall =
      match (c : Isa.cond) with
      | Isa.Jeq -> fun st -> let v = Array.unsafe_get st.stack slot in Array.unsafe_set st.regs d v; if v = i then taken st else fall st
      | Isa.Jne -> fun st -> let v = Array.unsafe_get st.stack slot in Array.unsafe_set st.regs d v; if v <> i then taken st else fall st
      | Isa.Jlt -> fun st -> let v = Array.unsafe_get st.stack slot in Array.unsafe_set st.regs d v; if v < i then taken st else fall st
      | Isa.Jle -> fun st -> let v = Array.unsafe_get st.stack slot in Array.unsafe_set st.regs d v; if v <= i then taken st else fall st
      | Isa.Jgt -> fun st -> let v = Array.unsafe_get st.stack slot in Array.unsafe_set st.regs d v; if v > i then taken st else fall st
      | Isa.Jge -> fun st -> let v = Array.unsafe_get st.stack slot in Array.unsafe_set st.regs d v; if v >= i then taken st else fall st
    in
    let ldx_jcc c a d slot taken fall =
      match (c : Isa.cond) with
      | Isa.Jeq -> fun st -> let v = Array.unsafe_get st.stack slot in Array.unsafe_set st.regs d v; if Array.unsafe_get st.regs a = v then taken st else fall st
      | Isa.Jne -> fun st -> let v = Array.unsafe_get st.stack slot in Array.unsafe_set st.regs d v; if Array.unsafe_get st.regs a <> v then taken st else fall st
      | Isa.Jlt -> fun st -> let v = Array.unsafe_get st.stack slot in Array.unsafe_set st.regs d v; if Array.unsafe_get st.regs a < v then taken st else fall st
      | Isa.Jle -> fun st -> let v = Array.unsafe_get st.stack slot in Array.unsafe_set st.regs d v; if Array.unsafe_get st.regs a <= v then taken st else fall st
      | Isa.Jgt -> fun st -> let v = Array.unsafe_get st.stack slot in Array.unsafe_set st.regs d v; if Array.unsafe_get st.regs a > v then taken st else fall st
      | Isa.Jge -> fun st -> let v = Array.unsafe_get st.stack slot in Array.unsafe_set st.regs d v; if Array.unsafe_get st.regs a >= v then taken st else fall st
    in
    for pc = n - 1 downto 0 do
      let fall = Array.unsafe_get conts (pc + 1) in
      conts.(pc) <-
        (match slot_update.(pc) with
        | Some (s, f) -> (
            (* The triple is usually a loop counter bump whose next
               instruction is the back-edge: fold the jump in so one
               closure updates the slot, pays the step budget, and lands
               back at the loop head. *)
            match if pc + 3 < n then Some code.(pc + 3) else None with
            | Some (Isa.Jmp t) when t <= pc + 3 ->
                fun st ->
                  Array.unsafe_set st.stack s (f (Array.unsafe_get st.stack s));
                  let fl = st.fuel - 1 in
                  if fl < 0 then raise (Vm.Fault "step budget exhausted");
                  st.fuel <- fl;
                  (Array.unsafe_get conts t) st
            | Some (Isa.Jmp t) ->
                let next = Array.unsafe_get conts t in
                fun st ->
                  Array.unsafe_set st.stack s (f (Array.unsafe_get st.stack s));
                  next st
            | _ ->
                let next = Array.unsafe_get conts (pc + 3) in
                fun st ->
                  Array.unsafe_set st.stack s (f (Array.unsafe_get st.stack s));
                  next st)
        | None ->
            if dead.(pc) then
              (* value absorbed by its consumer (or plain unread):
                 nothing to execute, so this slot aliases the next
                 instruction's closure *)
              fall
            else
              (match code.(pc) with
              | Isa.Mov (d, s)
                when pc + 1 < n
                     && (match code.(pc + 1) with
                        | Isa.Jcci _ -> true
                        | _ -> false) ->
                  (match code.(pc + 1) with
                  | Isa.Jcci (c, a, i, t) ->
                      mov_jcci d s c a i
                        (goto (pc + 1) t)
                        (Array.unsafe_get conts (pc + 2))
                  | _ -> assert false)
              | Isa.Mov (d, s) ->
                  let next = fall in
                  fun st ->
                    Array.unsafe_set st.regs d (Array.unsafe_get st.regs s);
                    next st
              | Isa.Movi (d, i) ->
                  let next = fall in
                  fun st ->
                    Array.unsafe_set st.regs d i;
                    next st
              | Isa.Alu (op, d, s) -> alu op d s fall
              | Isa.Alui (op, d, i) -> alui op d i fall
              | Isa.Jmp t -> goto pc t
              | Isa.Jcc (c, a, b, t) -> jcc_rr c a b (goto pc t) fall
              | Isa.Jcci (c, a, i, t) -> jcc_ri c a i (goto pc t) fall
              | Isa.Call _
                when pc + 2 < n
                     && (match (code.(pc + 1), code.(pc + 2)) with
                        | Isa.Mov (d, 0), Isa.Jcci (_, a, _, _) ->
                            a = 0 || a = d
                        | _ -> false) -> (
                  match (code.(pc + 1), code.(pc + 2)) with
                  | Isa.Mov (d, _), Isa.Jcci (c, _, i, t) ->
                      call_mov_jcci
                        (Array.unsafe_get execs pc)
                        d c i
                        (goto (pc + 2) t)
                        (Array.unsafe_get conts (pc + 3))
                  | _ -> assert false)
              | Isa.Call _ ->
                  let exec = Array.unsafe_get execs pc in
                  let next = fall in
                  fun st ->
                    Array.unsafe_set st.regs 0 (exec st);
                    next st
              | Isa.Ldx (d, slot) ->
                  let next = fall in
                  fun st ->
                    Array.unsafe_set st.regs d (Array.unsafe_get st.stack slot);
                    next st
              | Isa.Stx (slot, s) ->
                  let next = fall in
                  fun st ->
                    Array.unsafe_set st.stack slot (Array.unsafe_get st.regs s);
                    next st
              | Isa.Exit -> fun _ -> ()
              | Isa.CallJcci (_, c, i, t) ->
                  call_jcci (Array.unsafe_get execs pc) c i (goto pc t)
                    fall
              | Isa.LdxJcci (c, d, slot, i, t) ->
                  ldx_jcci c d slot i (goto pc t) fall
              | Isa.LdxJcc (c, a, d, slot, t) ->
                  ldx_jcc c a d slot (goto pc t) fall))
    done;
    { entry = conts.(0); max_steps; stack_words = Isa.stack_extent code }
  end

let instantiate { entry; max_steps; stack_words } : Env.t -> unit =
  let st =
    {
      regs = Array.make Isa.num_regs 0;
      stack = Array.make stack_words 0;
      env = Vm.detached;
      fuel = 0;
      pkts = Array.make 64 Packet.dummy;
      count = 0;
      gen = 0;
    }
  in
  fun env ->
    st.env <- env;
    Array.fill st.regs 0 Isa.num_regs 0;
    st.gen <- Atomic.fetch_and_add run_gen 1;
    st.count <- 0;
    st.fuel <- max_steps;
    entry st
