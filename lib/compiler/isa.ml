(** The eBPF-style target instruction set.

    Mirrors the essentials of the Linux eBPF machine the paper compiles
    to (§4.1): eleven 64-bit registers, two-address ALU ops, conditional
    jumps, helper calls with the eBPF calling convention (arguments in
    r1–r5, result in r0, r6–r9 callee-saved, r10 the read-only frame
    pointer — here: a word-addressed stack for spills), and an [Exit]
    instruction. Jump targets are absolute program counters. *)

type reg = int
(** 0..10; [r0] scratch/result, [r1]/[r2] helper arguments and scratch,
    [r3]-[r5] allocatable to values that live across no helper call,
    [r6]-[r9] allocatable, [r10] reserved. *)

let num_regs = 11

let scratch0 = 0

let scratch1 = 2
(* r2 doubles as the second scratch outside of call sequences *)

(* Helpers take at most two arguments, so call sequences write only
   r1/r2 (and r0); r3-r5 are free to hold values between calls. The
   verifier treats all of r1-r5 as clobbered by every call, so only r6-r9
   may hold a value across one. *)
let allocatable ~crosses_call =
  if crosses_call then [ 6; 7; 8; 9 ] else [ 3; 4; 5; 6; 7; 8; 9 ]

type aluop = Add | Sub | Mul | Div | Mod | And | Or | Xor | Lsh | Rsh

type cond = Jeq | Jne | Jlt | Jle | Jgt | Jge

(** Helper functions — the runtime services compiled schedulers call,
    analogous to eBPF kernel helpers. Queue codes: 0 = Q, 1 = QU, 2 = RQ.
    Packet and subflow handles are positive ints; 0 is NULL. All helpers
    are total: they return 0 on NULL/out-of-range inputs, realizing the
    model's graceful-failure semantics in compiled code. *)
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

let helper_arity = function
  | H_sbf_count -> 0
  | H_drop | H_get_reg -> 1
  | H_q_nth | H_q_remove | H_sbf_prop | H_pkt_prop | H_sent_on | H_has_window
  | H_push | H_set_reg ->
      2

let helper_name = function
  | H_q_nth -> "q_nth"
  | H_q_remove -> "q_remove"
  | H_sbf_count -> "sbf_count"
  | H_sbf_prop -> "sbf_prop"
  | H_pkt_prop -> "pkt_prop"
  | H_sent_on -> "sent_on"
  | H_has_window -> "has_window"
  | H_push -> "push"
  | H_drop -> "drop"
  | H_get_reg -> "get_reg"
  | H_set_reg -> "set_reg"

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
     ({!Bopt.fuse}); the code generator never emits them directly. Each
     is exactly the sequential composition of its two constituent
     instructions, so fusing is always semantics-preserving. *)
  | CallJcci of helper * cond * int * int
      (** [Call h] then [Jcci (c, r0, imm, t)]: the load-field-then-
          compare idiom (property reads and queue probes are helper
          calls whose result lands in r0). r0 keeps the call result. *)
  | LdxJcci of cond * reg * int * int * int
      (** [(c, d, slot, imm, t)]: [Ldx (d, slot)] then
          [Jcci (c, d, imm, t)] — compare-and-branch on a spilled
          operand. [d] keeps the loaded value. *)
  | LdxJcc of cond * reg * reg * int * int
      (** [(c, a, d, slot, t)]: [Ldx (d, slot)] then [Jcc (c, a, d, t)]
          — compare-and-branch whose right operand is reloaded from the
          stack. [d] keeps the loaded value. *)

(** Stack size in words, as in eBPF's 512-byte stack. *)
let stack_words = 512

(* Every slot operand in range is below the extent, so a stack of
   [stack_extent code] words serves each access the verifier admits. *)
let stack_extent (code : instr array) =
  Array.fold_left
    (fun m (i : instr) ->
      match i with
      | Ldx (_, s) | Stx (s, _) | LdxJcci (_, _, s, _, _) | LdxJcc (_, _, _, s, _)
        when s >= 0 && s < stack_words ->
          max m (s + 1)
      | _ -> m)
    0 code

let queue_code : Progmp_lang.Ast.queue_id -> int = function
  | Send_queue -> 0
  | Unacked_queue -> 1
  | Reinject_queue -> 2

(* Property codes shared between the compiler and the VM. *)

let sbf_prop_code (p : Progmp_lang.Props.subflow_prop) =
  match p with
  | Rtt -> 0
  | Rtt_avg -> 1
  | Rtt_var -> 2
  | Cwnd -> 3
  | Ssthresh -> 4
  | Skbs_in_flight -> 5
  | Queued -> 6
  | Lost_skbs -> 7
  | Is_backup -> 8
  | Tsq_throttled -> 9
  | Lossy -> 10
  | Sbf_id -> 11
  | Rto -> 12
  | Throughput -> 13
  | Mss -> 14

let sbf_prop_of_code = function
  | 0 -> Progmp_lang.Props.Rtt
  | 1 -> Rtt_avg
  | 2 -> Rtt_var
  | 3 -> Cwnd
  | 4 -> Ssthresh
  | 5 -> Skbs_in_flight
  | 6 -> Queued
  | 7 -> Lost_skbs
  | 8 -> Is_backup
  | 9 -> Tsq_throttled
  | 10 -> Lossy
  | 11 -> Sbf_id
  | 12 -> Rto
  | 13 -> Throughput
  | _ -> Mss

let pkt_prop_code (p : Progmp_lang.Props.packet_prop) =
  match p with
  | Size -> 0
  | Seq -> 1
  | Sent_count -> 2
  | User_prop i -> 3 + i

let pkt_prop_of_code = function
  | 0 -> Progmp_lang.Props.Size
  | 1 -> Seq
  | 2 -> Sent_count
  | n -> User_prop (n - 3)

let aluop_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Mod -> "mod"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Lsh -> "lsh"
  | Rsh -> "rsh"

(* [a c b] iff [b (cond_swap c) a] — used when fusing rewrites a
   comparison so that its reloaded operand sits on the right. *)
let cond_swap = function
  | Jeq -> Jeq
  | Jne -> Jne
  | Jlt -> Jgt
  | Jle -> Jge
  | Jgt -> Jlt
  | Jge -> Jle

(* [a (cond_neg c) b] iff not [a c b] — used when a branch's sense is
   inverted (folding a materialized boolean into a direct branch). *)
let cond_neg = function
  | Jeq -> Jne
  | Jne -> Jeq
  | Jlt -> Jge
  | Jle -> Jgt
  | Jgt -> Jle
  | Jge -> Jlt

let cond_name = function
  | Jeq -> "jeq"
  | Jne -> "jne"
  | Jlt -> "jlt"
  | Jle -> "jle"
  | Jgt -> "jgt"
  | Jge -> "jge"
