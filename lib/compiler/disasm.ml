(** Disassembler for compiled scheduler code, for the CLI and debugging
    (the analogue of the paper's proc-based introspection interface).
    Superinstructions print as one mnemonic so golden tests show where
    the middle-end fused. *)

let pp_instr ppf (i : Isa.instr) =
  match i with
  | Isa.Mov (d, s) -> Fmt.pf ppf "mov   r%d, r%d" d s
  | Isa.Movi (d, n) -> Fmt.pf ppf "mov   r%d, #%d" d n
  | Isa.Alu (op, d, s) -> Fmt.pf ppf "%-5s r%d, r%d" (Isa.aluop_name op) d s
  | Isa.Alui (op, d, n) -> Fmt.pf ppf "%-5s r%d, #%d" (Isa.aluop_name op) d n
  | Isa.Jmp t -> Fmt.pf ppf "ja    %d" t
  | Isa.Jcc (c, a, b, t) ->
      Fmt.pf ppf "%-5s r%d, r%d, %d" (Isa.cond_name c) a b t
  | Isa.Jcci (c, a, n, t) ->
      Fmt.pf ppf "%-5s r%d, #%d, %d" (Isa.cond_name c) a n t
  | Isa.Call h -> Fmt.pf ppf "call  %s" (Isa.helper_name h)
  | Isa.Ldx (d, s) -> Fmt.pf ppf "ldx   r%d, [fp-%d]" d s
  | Isa.Stx (s, r) -> Fmt.pf ppf "stx   [fp-%d], r%d" s r
  | Isa.Exit -> Fmt.string ppf "exit"
  (* superinstructions (bytecode middle-end fusion) *)
  | Isa.CallJcci (h, c, n, t) ->
      Fmt.pf ppf "call.%s %s, #%d, %d" (Isa.cond_name c) (Isa.helper_name h)
        n t
  | Isa.LdxJcci (c, d, slot, n, t) ->
      Fmt.pf ppf "ldx.%s r%d, [fp-%d], #%d, %d" (Isa.cond_name c) d slot n t
  | Isa.LdxJcc (c, a, d, slot, t) ->
      Fmt.pf ppf "ldx.%s r%d, (r%d=[fp-%d]), %d" (Isa.cond_name c) a d slot t

let pp_program ppf (code : Isa.instr array) =
  Array.iteri (fun pc i -> Fmt.pf ppf "%4d: %a@\n" pc pp_instr i) code

let to_string code = Fmt.str "%a" pp_program code
