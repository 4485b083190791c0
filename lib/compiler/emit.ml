(** Final lowering: virtual code + register allocation -> {!Isa} code.

    Virtual registers live in their allocated homes (a register of
    r3–r9 or a stack slot); each virtual instruction is lowered to a
    short sequence using [r0]/[r2] as scratch and [r1]/[r2] for helper
    arguments (no helper takes more than two), the eBPF calling
    convention. Labels are resolved to absolute program counters in a
    patch pass. *)

exception Error of string

type buffer = {
  mutable out : Isa.instr list;  (** reversed *)
  mutable n : int;
  label_pos : (int, int) Hashtbl.t;
  mutable patches : (int * int) list;  (** (instruction index, label) *)
}

let push buf i =
  buf.out <- i :: buf.out;
  buf.n <- buf.n + 1

let home (alloc : Regalloc.allocation) v =
  match alloc.Regalloc.homes.(v) with
  | Some h -> h
  | None -> raise (Error (Fmt.str "vreg v%d has no home" v))

(* Materialize [v] in a register: its own home register, or [scratch]
   after a stack load. *)
let read buf alloc v ~scratch =
  match home alloc v with
  | Regalloc.Reg r -> r
  | Regalloc.Stack s ->
      push buf (Isa.Ldx (scratch, s));
      scratch

(* Store the value held in physical register [from] into [v]'s home. *)
let write buf alloc v ~from =
  match home alloc v with
  | Regalloc.Reg r -> if r <> from then push buf (Isa.Mov (r, from))
  | Regalloc.Stack s -> push buf (Isa.Stx (s, from))

let jump_placeholder = -1

let lower_instr buf alloc (vi : Vcode.vinstr) =
  match vi with
  | Vcode.Vlabel l ->
      if Hashtbl.mem buf.label_pos l then
        raise (Error (Fmt.str "duplicate label L%d" l));
      Hashtbl.replace buf.label_pos l buf.n
  | Vcode.Vmovi (d, n) -> (
      match home alloc d with
      | Regalloc.Reg r -> push buf (Isa.Movi (r, n))
      | Regalloc.Stack s ->
          push buf (Isa.Movi (Isa.scratch0, n));
          push buf (Isa.Stx (s, Isa.scratch0)))
  | Vcode.Vmov (d, s) ->
      (* a reload lands in [d]'s home register directly *)
      let scratch =
        match home alloc d with
        | Regalloc.Reg r -> r
        | Regalloc.Stack _ -> Isa.scratch0
      in
      let rs = read buf alloc s ~scratch in
      write buf alloc d ~from:rs
  | Vcode.Valu (op, d, a, b) ->
      (* r0 := a; r0 := r0 op b; d := r0.  [b] may live in a register that
         is also [d]'s home; computing in r0 makes that safe. *)
      let ra = read buf alloc a ~scratch:Isa.scratch0 in
      if ra <> Isa.scratch0 then push buf (Isa.Mov (Isa.scratch0, ra));
      let rb = read buf alloc b ~scratch:Isa.scratch1 in
      push buf (Isa.Alu (op, Isa.scratch0, rb));
      write buf alloc d ~from:Isa.scratch0
  | Vcode.Valui (op, d, a, imm) ->
      let ra = read buf alloc a ~scratch:Isa.scratch0 in
      if ra <> Isa.scratch0 then push buf (Isa.Mov (Isa.scratch0, ra));
      push buf (Isa.Alui (op, Isa.scratch0, imm));
      write buf alloc d ~from:Isa.scratch0
  | Vcode.Vjmp l ->
      buf.patches <- (buf.n, l) :: buf.patches;
      push buf (Isa.Jmp jump_placeholder)
  | Vcode.Vjcc (c, a, b, l) ->
      let ra = read buf alloc a ~scratch:Isa.scratch0 in
      let rb = read buf alloc b ~scratch:Isa.scratch1 in
      buf.patches <- (buf.n, l) :: buf.patches;
      push buf (Isa.Jcc (c, ra, rb, jump_placeholder))
  | Vcode.Vjcci (c, a, imm, l) ->
      let ra = read buf alloc a ~scratch:Isa.scratch0 in
      buf.patches <- (buf.n, l) :: buf.patches;
      push buf (Isa.Jcci (c, ra, imm, jump_placeholder))
  | Vcode.Vcall (h, args, ret) ->
      if List.length args <> Isa.helper_arity h then
        raise
          (Error
             (Fmt.str "helper %s expects %d arguments" (Isa.helper_name h)
                (Isa.helper_arity h)));
      List.iteri
        (fun i v ->
          let dst = i + 1 in
          match home alloc v with
          | Regalloc.Reg r -> push buf (Isa.Mov (dst, r))
          | Regalloc.Stack s -> push buf (Isa.Ldx (dst, s)))
        args;
      push buf (Isa.Call h);
      (match ret with
      | Some d -> write buf alloc d ~from:Isa.scratch0
      | None -> ())
  | Vcode.Vexit -> push buf Isa.Exit

(** Lower allocated virtual code to a final instruction array. *)
let emit (v : Vcode.t) (alloc : Regalloc.allocation) : Isa.instr array =
  let buf =
    { out = []; n = 0; label_pos = Hashtbl.create 32; patches = [] }
  in
  Array.iter (lower_instr buf alloc) v.Vcode.code;
  let code = Array.of_list (List.rev buf.out) in
  List.iter
    (fun (pos, l) ->
      let target =
        match Hashtbl.find_opt buf.label_pos l with
        | Some t -> t
        | None -> raise (Error (Fmt.str "undefined label L%d" l))
      in
      code.(pos) <-
        (match code.(pos) with
        | Isa.Jmp _ -> Isa.Jmp target
        | Isa.Jcc (c, a, b, _) -> Isa.Jcc (c, a, b, target)
        | Isa.Jcci (c, a, i, _) -> Isa.Jcci (c, a, i, target)
        | _ -> raise (Error "patch target is not a jump")))
    buf.patches;
  code
