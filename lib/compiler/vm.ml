(** The reference bytecode executor: a bounds-checked interpreter of
    {!Isa} code. It runs no registered engine — {!Threaded} is the
    compiled tier — but it is the yardstick the middle-end, verifier
    and threaded-engine properties compare against, and it runs
    hand-built programs the verifier never saw.

    Executes {!Isa} code against a {!Progmp_runtime.Env}. Helpers
    implement the same graceful-failure semantics as the interpreter:
    NULL handles (0) make property reads yield 0 and PUSH/DROP no-ops;
    division/modulo by zero yield 0 (as in eBPF, where the verifier
    otherwise rejects). A step budget bounds runaway programs — queue
    scans and subflow loops are finite, so well-formed schedulers finish
    far below it. *)

open Progmp_runtime

type prog = {
  code : Isa.instr array;
  spill_slots : int;
  specialized_for : int option;
      (** compiled for a constant subflow count; the engine guards on it *)
  stack_extent : int;  (** an instance's stack size ({!Isa.stack_extent}) *)
}

(** Wrap code into an immutable program. Any number of instances
    ({!instantiate}) may run it, on any domain. *)
let make_prog ?specialized_for ~spill_slots code =
  {
    code;
    spill_slots;
    specialized_for;
    stack_extent = Isa.stack_extent code;
  }

exception Fault of string

let fault fmt = Fmt.kstr (fun m -> raise (Fault m)) fmt

(** Default execution budget, in executed instructions. *)
let default_max_steps = 1_000_000

(* One instance's scratch: reset per execution, reused across them. *)
type state = {
  mutable env : Env.t;
  regs : int array;
  stack : int array;
  packets : (int, Packet.t) Hashtbl.t;  (** handle (= packet id) -> packet *)
}

(* Stands in for the environment between executions; never run against. *)
let detached = Env.create ()

let fresh_state prog =
  {
    env = detached;
    regs = Array.make Isa.num_regs 0;
    stack = Array.make prog.stack_extent 0;
    packets = Hashtbl.create 32;
  }

let reset st env =
  st.env <- env;
  Array.fill st.regs 0 Isa.num_regs 0;
  Hashtbl.reset st.packets

let queue_of_code st = function
  | 0 -> st.env.Env.q
  | 1 -> st.env.Env.qu
  | 2 -> st.env.Env.rq
  | c -> fault "bad queue code %d" c

let register_packet st (p : Packet.t) =
  Hashtbl.replace st.packets p.Packet.id p;
  p.Packet.id

let packet_of_handle st h =
  if h = 0 then None
  else
    match Hashtbl.find_opt st.packets h with
    | Some p -> Some p
    | None -> fault "invalid packet handle %d" h

let subflow_of_handle st h =
  let n = Array.length st.env.Env.subflows in
  if h <= 0 || h > n then None else Some st.env.Env.subflows.(h - 1)

let exec_helper st (h : Isa.helper) =
  let arg i = st.regs.(i + 1) in
  match h with
  | Isa.H_q_nth -> (
      let q = queue_of_code st (arg 0) in
      match Pqueue.nth q (arg 1) with
      | Some p -> register_packet st p
      | None -> 0)
  | Isa.H_q_remove -> (
      let q = queue_of_code st (arg 0) in
      match Pqueue.remove_at q (arg 1) with
      | Some p ->
          Env.record_pop st.env q p;
          register_packet st p
      | None -> 0)
  | Isa.H_sbf_count -> Array.length st.env.Env.subflows
  | Isa.H_sbf_prop -> (
      match subflow_of_handle st (arg 0) with
      | Some v -> Subflow_view.prop_int v (Isa.sbf_prop_of_code (arg 1))
      | None -> 0)
  | Isa.H_pkt_prop -> (
      match packet_of_handle st (arg 0) with
      | Some p -> (
          match Isa.pkt_prop_of_code (arg 1) with
          | Progmp_lang.Props.Size -> p.Packet.size
          | Progmp_lang.Props.Seq -> p.Packet.seq
          | Progmp_lang.Props.Sent_count -> p.Packet.sent_count
          | Progmp_lang.Props.User_prop i -> Packet.user_prop p i)
      | None -> 0)
  | Isa.H_sent_on -> (
      match (packet_of_handle st (arg 0), subflow_of_handle st (arg 1)) with
      | Some p, Some v ->
          if Packet.sent_on p ~sbf_id:v.Subflow_view.id then 1 else 0
      | _, _ -> 0)
  | Isa.H_has_window -> (
      match (subflow_of_handle st (arg 0), packet_of_handle st (arg 1)) with
      | Some v, Some p -> if Subflow_view.has_window_for v p then 1 else 0
      | _, _ -> 0)
  | Isa.H_push -> (
      match (subflow_of_handle st (arg 0), packet_of_handle st (arg 1)) with
      | Some v, Some p ->
          Env.emit_push st.env ~sbf_id:v.Subflow_view.id p;
          0
      | _, _ -> 0)
  | Isa.H_drop -> (
      match packet_of_handle st (arg 0) with
      | Some p ->
          Env.emit_drop st.env p;
          0
      | None -> 0)
  | Isa.H_get_reg -> Env.get_register st.env (arg 0)
  | Isa.H_set_reg ->
      Env.set_register st.env (arg 0) (arg 1);
      0

let exec_alu op a b =
  match (op : Isa.aluop) with
  | Isa.Add -> a + b
  | Isa.Sub -> a - b
  | Isa.Mul -> a * b
  | Isa.Div -> if b = 0 then 0 else a / b
  | Isa.Mod -> if b = 0 then 0 else a mod b
  | Isa.And -> a land b
  | Isa.Or -> a lor b
  | Isa.Xor -> a lxor b
  | Isa.Lsh -> if b < 0 || b >= 63 then 0 else a lsl b
  | Isa.Rsh -> if b < 0 then 0 else if b >= 63 then 0 else a asr b

let exec_cond c a b =
  match (c : Isa.cond) with
  | Isa.Jeq -> a = b
  | Isa.Jne -> a <> b
  | Isa.Jlt -> a < b
  | Isa.Jle -> a <= b
  | Isa.Jgt -> a > b
  | Isa.Jge -> a >= b

(* The boxed-variant interpreter: executes [Isa.instr array] directly,
   with full bounds checking, so it also runs hand-built programs the
   verifier never saw. It is the reference the middle-end's and the
   threaded engine's property tests run code on. *)
let run_boxed st (code : Isa.instr array) max_steps =
  let len = Array.length code in
  let steps = ref 0 in
  let rec step pc =
    if pc < 0 || pc >= len then fault "pc %d out of bounds" pc;
    incr steps;
    if !steps > max_steps then fault "step budget exhausted";
    match code.(pc) with
    | Isa.Mov (d, s) ->
        st.regs.(d) <- st.regs.(s);
        step (pc + 1)
    | Isa.Movi (d, n) ->
        st.regs.(d) <- n;
        step (pc + 1)
    | Isa.Alu (op, d, s) ->
        st.regs.(d) <- exec_alu op st.regs.(d) st.regs.(s);
        step (pc + 1)
    | Isa.Alui (op, d, n) ->
        st.regs.(d) <- exec_alu op st.regs.(d) n;
        step (pc + 1)
    | Isa.Jmp t -> step t
    | Isa.Jcc (c, a, b, t) ->
        if exec_cond c st.regs.(a) st.regs.(b) then step t else step (pc + 1)
    | Isa.Jcci (c, a, n, t) ->
        if exec_cond c st.regs.(a) n then step t else step (pc + 1)
    | Isa.Call h ->
        st.regs.(0) <- exec_helper st h;
        step (pc + 1)
    | Isa.Ldx (d, slot) ->
        if slot < 0 || slot >= Isa.stack_words then fault "stack load oob";
        st.regs.(d) <- st.stack.(slot);
        step (pc + 1)
    | Isa.Stx (slot, s) ->
        if slot < 0 || slot >= Isa.stack_words then fault "stack store oob";
        st.stack.(slot) <- st.regs.(s);
        step (pc + 1)
    | Isa.Exit -> ()
    (* Superinstructions: exactly the sequential composition of their
       two constituents (see {!Isa}). *)
    | Isa.CallJcci (h, c, n, t) ->
        st.regs.(0) <- exec_helper st h;
        if exec_cond c st.regs.(0) n then step t else step (pc + 1)
    | Isa.LdxJcci (c, d, slot, n, t) ->
        if slot < 0 || slot >= Isa.stack_words then fault "stack load oob";
        st.regs.(d) <- st.stack.(slot);
        if exec_cond c st.regs.(d) n then step t else step (pc + 1)
    | Isa.LdxJcc (c, a, d, slot, t) ->
        if slot < 0 || slot >= Isa.stack_words then fault "stack load oob";
        st.regs.(d) <- st.stack.(slot);
        if exec_cond c st.regs.(a) st.regs.(d) then step t else step (pc + 1)
  in
  if len > 0 then step 0

(** An instance of [prog]: its own register file, stack and packet
    table, reused by every execution it runs (one at a time).
    @raise Fault on invalid handles, bad queue codes or an exhausted
    step budget. *)
let instantiate ?(max_steps = default_max_steps) (prog : prog) =
  let st = fresh_state prog in
  fun env ->
    reset st env;
    run_boxed st prog.code max_steps

let run ?max_steps prog env = instantiate ?max_steps prog env

(** Number of instructions — the analogue of the paper's per-scheduler
    memory figures (§4.3). *)
let size prog = Array.length prog.code
