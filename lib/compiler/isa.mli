(** The eBPF-style target instruction set: eleven 64-bit registers,
    two-address ALU ops, conditional jumps with absolute targets, helper
    calls in the eBPF calling convention (arguments r1-r5, result r0,
    r6-r9 callee-saved), a word-addressed stack for spills, and [Exit].
    Helpers are total: NULL/out-of-range inputs yield 0, realizing the
    model's graceful-failure semantics in compiled code. *)

type reg = int
(** 0..10; [r0] scratch/result, [r1]/[r2] helper arguments and scratch,
    [r3]-[r5] allocatable to call-free intervals, [r6]-[r9] allocatable
    to any interval, [r10] reserved. *)

val num_regs : int

val scratch0 : reg

val scratch1 : reg

val allocatable : crosses_call:bool -> reg list
(** The registers a live interval may occupy, in order of preference:
    r6–r9 (callee-saved) for an interval that crosses a helper call,
    r3–r5 then r6–r9 for a call-free one. Call sequences write only r0
    and the argument registers r1/r2 (no helper takes more than two
    arguments), but the verifier considers all of r1–r5 clobbered by a
    call, as eBPF does. *)

type aluop = Add | Sub | Mul | Div | Mod | And | Or | Xor | Lsh | Rsh

type cond = Jeq | Jne | Jlt | Jle | Jgt | Jge

type helper =
  | H_q_nth  (** (queue, index) -> packet handle or 0 *)
  | H_q_remove  (** (queue, index) -> packet handle or 0; records the POP *)
  | H_sbf_count  (** () -> number of subflows in the snapshot *)
  | H_sbf_prop  (** (sbf handle, prop code) -> value *)
  | H_pkt_prop  (** (pkt handle, prop code) -> value *)
  | H_sent_on  (** (pkt, sbf) -> 0/1 *)
  | H_has_window  (** (sbf, pkt) -> 0/1 *)
  | H_push  (** (sbf, pkt) -> 0; buffers a PUSH action *)
  | H_drop  (** (pkt) -> 0; buffers a DROP action *)
  | H_get_reg  (** (index) -> scheduler register value *)
  | H_set_reg  (** (index, value) -> 0 *)

val helper_arity : helper -> int

val helper_name : helper -> string

type instr =
  | Mov of reg * reg  (** dst := src *)
  | Movi of reg * int
  | Alu of aluop * reg * reg  (** dst := dst op src *)
  | Alui of aluop * reg * int
  | Jmp of int
  | Jcc of cond * reg * reg * int  (** if a cond b then jump *)
  | Jcci of cond * reg * int * int
  | Call of helper
  | Ldx of reg * int  (** dst := stack[slot] *)
  | Stx of int * reg  (** stack[slot] := src *)
  | Exit
  (* Superinstructions, formed only by the bytecode middle-end
     ({!Bopt.fuse}); each is exactly the sequential composition of its
     two constituent instructions. *)
  | CallJcci of helper * cond * int * int
      (** [Call h] then [Jcci (c, r0, imm, t)]: load-field-then-compare
          (property reads and queue probes are helper calls). *)
  | LdxJcci of cond * reg * int * int * int
      (** [(c, d, slot, imm, t)]: [Ldx (d, slot)] then
          [Jcci (c, d, imm, t)]. *)
  | LdxJcc of cond * reg * reg * int * int
      (** [(c, a, d, slot, t)]: [Ldx (d, slot)] then
          [Jcc (c, a, d, t)]. *)

val stack_words : int
(** Stack size in words (eBPF's 512-byte stack analogue). *)

val stack_extent : instr array -> int
(** Stack words [code] can touch: one past its highest slot operand
    below {!stack_words} (0 when it has none). An instance needs only
    this much stack. *)

val queue_code : Progmp_lang.Ast.queue_id -> int

val sbf_prop_code : Progmp_lang.Props.subflow_prop -> int

val sbf_prop_of_code : int -> Progmp_lang.Props.subflow_prop

val pkt_prop_code : Progmp_lang.Props.packet_prop -> int

val pkt_prop_of_code : int -> Progmp_lang.Props.packet_prop

val aluop_name : aluop -> string

val cond_swap : cond -> cond
(** [a c b] iff [b (cond_swap c) a]. *)

val cond_neg : cond -> cond
(** [a (cond_neg c) b] iff not [a c b]. *)

val cond_name : cond -> string
