(** Code generation: typed IR -> virtual three-address code.

    Declarative operations are lowered to explicit loops, fusing filter
    stacks into their consumers — this is the "combines scheduler
    primitives, such as FILTER, reducing the number of loops and function
    calls" step of the paper's eBPF compilation (§4.1):

    - a subflow list becomes a {e bitmask} over the subflow snapshot
      (bit i = subflow index i, handle i+1), so [FILTER] chains compose
      with bitwise AND semantics and never materialize lists; a subflow
      loop carries the current handle and its mask bit together
      ([bit <<= 1] per step) and tests [mask & bit], skipping the test
      when it iterates [SUBFLOWS] itself;
    - queue views become scan loops over the base queue with the filter
      predicates inlined; [FILTER(..).MIN(..)] is one loop;
    - [POP] on a filtered view removes the first matching packet in
      place via the [q_remove] helper.

    Conditions are compiled as {e jumping code} ({!gen_jump}): [IF],
    [FILTER] predicates and queue-view filters branch on [AND]/[OR]/
    [NOT], comparisons, [EMPTY] and literals directly, so a boolean is
    materialized as 0/1 only where a value is needed ([VAR b = ..],
    [SET], a boolean compared for equality).

    Program variables ({!Tast} slots) occupy virtual registers
    [0 .. num_slots-1]; all other values get fresh virtual registers.
    Every declaration has its own slot and scoping makes each read of a
    slot dominated by its definition, so slots need no initialization
    (the verifier's read-before-write check confirms it on every
    program). Booleans are 0/1; NULL is handle 0. *)

open Progmp_lang
module V = Vcode

type ctx = {
  b : V.builder;
  subflow_count : int option;
      (** when set, specialize for a constant number of subflows *)
}

let emit ctx i = V.emit ctx.b i

let fresh ctx = V.fresh_vreg ctx.b

let label ctx = V.fresh_label ctx.b

let const ctx n =
  let v = fresh ctx in
  emit ctx (V.Vmovi (v, n));
  v

let call ctx h args ~ret =
  let r = if ret then Some (fresh ctx) else None in
  emit ctx (V.Vcall (h, args, r));
  match r with Some v -> v | None -> -1

(* Number of subflows in the snapshot: a helper call, or a constant under
   specialization. *)
let sbf_count ctx =
  match ctx.subflow_count with
  | Some k -> const ctx k
  | None -> call ctx Isa.H_sbf_count [] ~ret:true

(* Iterate over the subflows of a list, in index order: [mask] is the
   list's bitmask vreg, or [None] when the list is [SUBFLOWS] itself and
   every index of the snapshot qualifies. The loop carries the 1-based
   handle in [handle] (a fresh vreg unless the caller names one, e.g.
   the FOREACH variable or a lambda parameter, which the body only
   reads) and, when the caller passes [bit], the handle's mask bit
   ([bit <<= 1] per step). A masked loop shifts a copy of the mask
   right as it goes: the low bit tests the current index and the loop
   ends after the highest set bit, so it needs no subflow count; a loop
   over [SUBFLOWS] runs to the count with no test. [body] receives the
   label that breaks the loop. *)
let for_each_sbf ctx ?handle ?bit ~mask ~body () =
  let l_head = label ctx and l_cont = label ctx and l_end = label ctx in
  let bound =
    match mask with
    | None -> `Count (sbf_count ctx)
    | Some mask ->
        let rest = fresh ctx in
        emit ctx (V.Vmov (rest, mask));
        `Rest rest
  in
  (* a masked loop whose body ignores the handle does not carry one *)
  let handle =
    match (handle, bound) with
    | None, `Count _ -> Some (fresh ctx)
    | handle, _ -> handle
  in
  let carried = Option.to_list handle @ Option.to_list bit in
  List.iter (fun v -> emit ctx (V.Vmovi (v, 1))) carried;
  let start = V.here ctx.b in
  emit ctx (V.Vlabel l_head);
  (match bound with
  | `Count vn -> emit ctx (V.Vjcc (Isa.Jgt, Option.get handle, vn, l_end))
  | `Rest rest ->
      emit ctx (V.Vjcci (Isa.Jeq, rest, 0, l_end));
      let vt = fresh ctx in
      emit ctx (V.Valui (Isa.And, vt, rest, 1));
      emit ctx (V.Vjcci (Isa.Jeq, vt, 0, l_cont)));
  body ~l_end;
  emit ctx (V.Vlabel l_cont);
  Option.iter (fun vh -> emit ctx (V.Valui (Isa.Add, vh, vh, 1))) handle;
  Option.iter (fun bit -> emit ctx (V.Valui (Isa.Lsh, bit, bit, 1))) bit;
  (match bound with
  | `Count _ -> ()
  | `Rest rest -> emit ctx (V.Valui (Isa.Rsh, rest, rest, 1)));
  emit ctx (V.Vjmp l_head);
  emit ctx (V.Vlabel l_end);
  V.record_loop ctx.b ~start ~stop:(V.here ctx.b)

(* [h] (q_nth or q_remove) applied to index 0 of queue [base]: the
   head packet, or NULL when the queue is empty. *)
let queue_head ctx h base =
  let vq = const ctx (Isa.queue_code base) in
  let vz = const ctx 0 in
  call ctx h [ vq; vz ] ~ret:true

let comparison_cond = function
  | Tast.Eq -> Some Isa.Jeq
  | Tast.Neq -> Some Isa.Jne
  | Tast.Lt -> Some Isa.Jlt
  | Tast.Le -> Some Isa.Jle
  | Tast.Gt -> Some Isa.Jgt
  | Tast.Ge -> Some Isa.Jge
  | _ -> None

(* An operand known at compile time: compared as an immediate. *)
let literal (e : Tast.expr) =
  match e.Tast.desc with
  | Tast.Int_lit n -> Some n
  | Tast.Bool_lit b -> Some (if b then 1 else 0)
  | Tast.Null _ -> Some 0
  | _ -> None

let rec gen_expr ctx (e : Tast.expr) : V.vreg =
  match e.Tast.desc with
  | Tast.Int_lit n -> const ctx n
  | Tast.Bool_lit b -> const ctx (if b then 1 else 0)
  | Tast.Null _ -> const ctx 0
  | Tast.Register i ->
      let vi = const ctx i in
      call ctx Isa.H_get_reg [ vi ] ~ret:true
  | Tast.Slot i ->
      (* read in place: slots are single-assignment, and a loop variable
         (FOREACH, lambda parameter) only changes after its iteration's
         reads *)
      i
  | Tast.Not _ | Tast.Sbf_empty _ | Tast.Q_empty _
  | Tast.Binop ((Tast.And | Tast.Or), _, _) ->
      gen_bool ctx e
  | Tast.Binop (op, a, b) -> (
      match comparison_cond op with
      | Some _ -> gen_bool ctx e
      | None -> gen_arith ctx op a b)
  | Tast.Neg a ->
      let va = gen_expr ctx a in
      let v = fresh ctx in
      emit ctx (V.Valui (Isa.Mul, v, va, -1));
      v
  | Tast.Subflows ->
      (* mask = (1 << count) - 1 *)
      let vn = sbf_count ctx in
      let vone = const ctx 1 in
      let v = fresh ctx in
      emit ctx (V.Valu (Isa.Lsh, v, vone, vn));
      emit ctx (V.Valui (Isa.Sub, v, v, 1));
      v
  | Tast.Sbf_filter (l, lam) ->
      let mask = gen_mask ctx l in
      let res = const ctx 0 and bit = fresh ctx in
      for_each_sbf ctx ~handle:lam.Tast.param ~bit ~mask ~body:(fun ~l_end:_ ->
          let l_skip = label ctx in
          gen_jump ctx lam.Tast.body ~when_:false ~target:l_skip;
          emit ctx (V.Valu (Isa.Or, res, res, bit));
          emit ctx (V.Vlabel l_skip))
        ();
      res
  | Tast.Sbf_min (l, lam) -> gen_sbf_select ctx ~is_min:true l lam
  | Tast.Sbf_max (l, lam) -> gen_sbf_select ctx ~is_min:false l lam
  | Tast.Sbf_sum (l, lam) ->
      let mask = gen_mask ctx l in
      let res = const ctx 0 in
      for_each_sbf ctx ~handle:lam.Tast.param ~mask ~body:(fun ~l_end:_ ->
          let vk = gen_expr ctx lam.Tast.body in
          emit ctx (V.Valu (Isa.Add, res, res, vk)))
        ();
      res
  | Tast.Sbf_get (l, idx) ->
      let mask = gen_mask ctx l in
      let vidx = gen_expr ctx idx in
      let res = const ctx 0 and seen = const ctx 0 in
      let vh = fresh ctx in
      for_each_sbf ctx ~handle:vh ~mask ~body:(fun ~l_end ->
          let l_skip = label ctx in
          emit ctx (V.Vjcc (Isa.Jne, seen, vidx, l_skip));
          emit ctx (V.Vmov (res, vh));
          emit ctx (V.Vjmp l_end);
          emit ctx (V.Vlabel l_skip);
          emit ctx (V.Valui (Isa.Add, seen, seen, 1)))
        ();
      res
  | Tast.Sbf_count l -> (
      match gen_mask ctx l with
      | None -> sbf_count ctx
      | Some mask ->
          let res = const ctx 0 in
          for_each_sbf ctx ~mask:(Some mask)
            ~body:(fun ~l_end:_ ->
              emit ctx (V.Valui (Isa.Add, res, res, 1)))
            ();
          res)
  | Tast.Sbf_prop (s, prop) ->
      let vs = gen_expr ctx s in
      let vc = const ctx (Isa.sbf_prop_code prop) in
      call ctx Isa.H_sbf_prop [ vs; vc ] ~ret:true
  | Tast.Has_window_for (s, p) ->
      let vs = gen_expr ctx s in
      let vp = gen_expr ctx p in
      call ctx Isa.H_has_window [ vs; vp ] ~ret:true
  (* the first packet of an unfiltered view is the queue's head *)
  | Tast.Q_top { base; filters = [] } -> queue_head ctx Isa.H_q_nth base
  | Tast.Q_pop { base; filters = [] } -> queue_head ctx Isa.H_q_remove base
  | Tast.Q_top view ->
      let res = const ctx 0 in
      gen_queue_scan ctx view ~body:(fun ~idx:_ ~pkt ~l_end ->
          emit ctx (V.Vmov (res, pkt));
          emit ctx (V.Vjmp l_end));
      res
  | Tast.Q_pop view ->
      let res = const ctx 0 in
      let qc = Isa.queue_code view.Tast.base in
      gen_queue_scan ctx view ~body:(fun ~idx ~pkt:_ ~l_end ->
          let vq = const ctx qc in
          let r = call ctx Isa.H_q_remove [ vq; idx ] ~ret:true in
          emit ctx (V.Vmov (res, r));
          emit ctx (V.Vjmp l_end));
      res
  | Tast.Q_min (view, lam) -> gen_q_select ctx ~is_min:true view lam
  | Tast.Q_max (view, lam) -> gen_q_select ctx ~is_min:false view lam
  | Tast.Q_count view ->
      let res = const ctx 0 in
      gen_queue_scan ctx view ~body:(fun ~idx:_ ~pkt:_ ~l_end:_ ->
          emit ctx (V.Valui (Isa.Add, res, res, 1)));
      res
  | Tast.Pkt_prop (p, prop) ->
      let vp = gen_expr ctx p in
      let vc = const ctx (Isa.pkt_prop_code prop) in
      call ctx Isa.H_pkt_prop [ vp; vc ] ~ret:true
  | Tast.Sent_on (p, s) ->
      let vp = gen_expr ctx p in
      let vs = gen_expr ctx s in
      call ctx Isa.H_sent_on [ vp; vs ] ~ret:true

and gen_arith ctx op a b =
  let va = gen_expr ctx a in
  let vb = gen_expr ctx b in
  let aluop =
    match op with
    | Tast.Add -> Isa.Add
    | Tast.Sub -> Isa.Sub
    | Tast.Mul -> Isa.Mul
    | Tast.Div -> Isa.Div
    | _ -> Isa.Mod
  in
  let res = fresh ctx in
  emit ctx (V.Valu (aluop, res, va, vb));
  res

(* A boolean as a 0/1 value: its jumping code picks one of two
   constants. *)
and gen_bool ctx e =
  let res = fresh ctx in
  let l_false = label ctx and l_end = label ctx in
  gen_jump ctx e ~when_:false ~target:l_false;
  emit ctx (V.Vmovi (res, 1));
  emit ctx (V.Vjmp l_end);
  emit ctx (V.Vlabel l_false);
  emit ctx (V.Vmovi (res, 0));
  emit ctx (V.Vlabel l_end);
  res

(* Jumping code: branch to [target] iff [e] evaluates to [when_], fall
   through otherwise, without materializing the boolean. Operands are
   evaluated left to right, as in value context, and [AND]/[OR]
   short-circuit. *)
and gen_jump ctx (e : Tast.expr) ~when_ ~target =
  match e.Tast.desc with
  | Tast.Bool_lit b -> if b = when_ then emit ctx (V.Vjmp target)
  | Tast.Not a -> gen_jump ctx a ~when_:(not when_) ~target
  | Tast.Binop (Tast.And, a, b) when when_ ->
      let l_skip = label ctx in
      gen_jump ctx a ~when_:false ~target:l_skip;
      gen_jump ctx b ~when_:true ~target;
      emit ctx (V.Vlabel l_skip)
  | Tast.Binop (Tast.And, a, b) ->
      gen_jump ctx a ~when_:false ~target;
      gen_jump ctx b ~when_:false ~target
  | Tast.Binop (Tast.Or, a, b) when when_ ->
      gen_jump ctx a ~when_:true ~target;
      gen_jump ctx b ~when_:true ~target
  | Tast.Binop (Tast.Or, a, b) ->
      let l_skip = label ctx in
      gen_jump ctx a ~when_:true ~target:l_skip;
      gen_jump ctx b ~when_:false ~target;
      emit ctx (V.Vlabel l_skip)
  | Tast.Binop (op, a, b) when comparison_cond op <> None ->
      let c = Option.get (comparison_cond op) in
      let c = if when_ then c else Isa.cond_neg c in
      (match (literal a, literal b) with
      | _, Some n -> emit ctx (V.Vjcci (c, gen_expr ctx a, n, target))
      | Some n, None ->
          emit ctx (V.Vjcci (Isa.cond_swap c, gen_expr ctx b, n, target))
      | None, None ->
          let va = gen_expr ctx a in
          let vb = gen_expr ctx b in
          emit ctx (V.Vjcc (c, va, vb, target)))
  | Tast.Sbf_empty l -> (
      match gen_mask ctx l with
      (* SUBFLOWS is empty iff the snapshot has no subflow *)
      | None ->
          let vn = sbf_count ctx in
          emit ctx
            (V.Vjcci ((if when_ then Isa.Jeq else Isa.Jne), vn, 0, target))
      | Some mask ->
          emit ctx
            (V.Vjcci ((if when_ then Isa.Jeq else Isa.Jne), mask, 0, target)))
  | Tast.Q_empty { base; filters = [] } ->
      let vp = queue_head ctx Isa.H_q_nth base in
      emit ctx
        (V.Vjcci ((if when_ then Isa.Jeq else Isa.Jne), vp, 0, target))
  | Tast.Q_empty view when when_ ->
      let l_nonempty = label ctx in
      gen_queue_scan ctx view ~body:(fun ~idx:_ ~pkt:_ ~l_end:_ ->
          emit ctx (V.Vjmp l_nonempty));
      emit ctx (V.Vjmp target);
      emit ctx (V.Vlabel l_nonempty)
  | Tast.Q_empty view ->
      gen_queue_scan ctx view ~body:(fun ~idx:_ ~pkt:_ ~l_end:_ ->
          emit ctx (V.Vjmp target))
  | _ ->
      let v = gen_expr ctx e in
      emit ctx (V.Vjcci ((if when_ then Isa.Jne else Isa.Jeq), v, 0, target))

(* A subflow list's mask, or [None] for [SUBFLOWS] itself (every index
   of the snapshot). *)
and gen_mask ctx (l : Tast.expr) =
  match l.Tast.desc with
  | Tast.Subflows -> None
  | _ -> Some (gen_expr ctx l)

and gen_sbf_select ctx ~is_min l (lam : Tast.lambda) =
  let mask = gen_mask ctx l in
  (* handles are positive, so [best = 0] means nothing found yet *)
  let best = const ctx 0 and bestk = const ctx 0 in
  let vh = lam.Tast.param in
  for_each_sbf ctx ~handle:vh ~mask ~body:(fun ~l_end:_ ->
      let vk = gen_expr ctx lam.Tast.body in
      let l_take = label ctx and l_skip = label ctx in
      emit ctx (V.Vjcci (Isa.Jeq, best, 0, l_take));
      emit ctx
        (V.Vjcc ((if is_min then Isa.Jge else Isa.Jle), vk, bestk, l_skip));
      emit ctx (V.Vlabel l_take);
      emit ctx (V.Vmov (best, vh));
      emit ctx (V.Vmov (bestk, vk));
      emit ctx (V.Vlabel l_skip))
    ();
  best

(* Scan the base queue of [view] front to back; for each packet passing
   the inlined filter stack, run [body]. [body] receives the queue index,
   the packet handle and the scan's break label. *)
and gen_queue_scan ctx (view : Tast.queue_view) ~body =
  let qc = Isa.queue_code view.Tast.base in
  let vi = const ctx 0 in
  let l_head = label ctx and l_cont = label ctx and l_end = label ctx in
  let start = V.here ctx.b in
  emit ctx (V.Vlabel l_head);
  let vq = const ctx qc in
  let vp = call ctx Isa.H_q_nth [ vq; vi ] ~ret:true in
  emit ctx (V.Vjcci (Isa.Jeq, vp, 0, l_end));
  List.iter
    (fun (lam : Tast.lambda) ->
      emit ctx (V.Vmov (lam.Tast.param, vp));
      gen_jump ctx lam.Tast.body ~when_:false ~target:l_cont)
    view.Tast.filters;
  body ~idx:vi ~pkt:vp ~l_end;
  emit ctx (V.Vlabel l_cont);
  emit ctx (V.Valui (Isa.Add, vi, vi, 1));
  emit ctx (V.Vjmp l_head);
  emit ctx (V.Vlabel l_end);
  V.record_loop ctx.b ~start ~stop:(V.here ctx.b)

and gen_q_select ctx ~is_min (view : Tast.queue_view) (lam : Tast.lambda) =
  (* packet handles are positive, so [best = 0] means nothing found yet *)
  let best = const ctx 0 and bestk = const ctx 0 in
  gen_queue_scan ctx view ~body:(fun ~idx:_ ~pkt ~l_end:_ ->
      emit ctx (V.Vmov (lam.Tast.param, pkt));
      let vk = gen_expr ctx lam.Tast.body in
      let l_take = label ctx and l_skip = label ctx in
      emit ctx (V.Vjcci (Isa.Jeq, best, 0, l_take));
      emit ctx
        (V.Vjcc ((if is_min then Isa.Jge else Isa.Jle), vk, bestk, l_skip));
      emit ctx (V.Vlabel l_take);
      emit ctx (V.Vmov (best, pkt));
      emit ctx (V.Vmov (bestk, vk));
      emit ctx (V.Vlabel l_skip));
  best

let rec gen_stmt ctx (s : Tast.stmt) =
  match s with
  | Tast.Var_decl (slot, e) ->
      let v = gen_expr ctx e in
      emit ctx (V.Vmov (slot, v))
  | Tast.If (cond, then_, else_) ->
      let l_else = label ctx and l_end = label ctx in
      gen_jump ctx cond ~when_:false ~target:l_else;
      gen_block ctx then_;
      if else_ <> [] then emit ctx (V.Vjmp l_end);
      emit ctx (V.Vlabel l_else);
      gen_block ctx else_;
      emit ctx (V.Vlabel l_end)
  | Tast.Foreach (slot, src, body) ->
      let mask = gen_mask ctx src in
      for_each_sbf ctx ~handle:slot ~mask ~body:(fun ~l_end:_ ->
          gen_block ctx body)
        ()
  | Tast.Set_register (r, e) ->
      let v = gen_expr ctx e in
      let vr = const ctx r in
      ignore (call ctx Isa.H_set_reg [ vr; v ] ~ret:false)
  | Tast.Push (s, p) ->
      let vs = gen_expr ctx s in
      let vp = gen_expr ctx p in
      ignore (call ctx Isa.H_push [ vs; vp ] ~ret:false)
  | Tast.Drop e ->
      let vp = gen_expr ctx e in
      ignore (call ctx Isa.H_drop [ vp ] ~ret:false)
  | Tast.Return -> emit ctx V.Vexit

and gen_block ctx b = List.iter (gen_stmt ctx) b

(** Translate a typed program to virtual code. When [subflow_count] is
    given, the code is specialized for that constant number of subflows
    (the caller must guard execution on the actual count). *)
let generate ?subflow_count (p : Tast.program) : V.t =
  let b = V.create_builder ~reserved_vregs:(max 1 p.Tast.num_slots) in
  let ctx = { b; subflow_count } in
  gen_block ctx p.Tast.body;
  emit ctx V.Vexit;
  V.finish b ~num_vregs:b.V.next_vreg
