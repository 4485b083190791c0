(** Source-generating AOT backend — the faithful analogue of the paper's
    ahead-of-time compiler, which "generates and compiles C functions to
    be called at runtime" (§4.1). [emit] renders a checked scheduler
    program as a standalone OCaml module exposing

    {[ val engine : Progmp_runtime.Env.t -> unit ]}

    compatible with {!Scheduler.install_custom}. The repository compiles
    generated modules through a dune rule and differentially tests them
    against the interpreter (see [test/gen/]); the [progmp gen-ocaml]
    CLI command exposes the generator to users.

    Slots become typed [ref]s (their static types are known), queue
    views become scan loops with the filter predicates inlined, and all
    graceful-failure semantics (NULL propagation, total division) are
    generated explicitly. *)

open Progmp_lang

let buf_add = Buffer.add_string

type ctx = { buf : Buffer.t; mutable fresh : int }

let fresh ctx prefix =
  ctx.fresh <- ctx.fresh + 1;
  Fmt.str "__%s%d" prefix ctx.fresh

let slot_name i = Fmt.str "slot_%d" i

(* Every emitted expression is a self-contained OCaml expression wrapped
   in parentheses, so precedence never leaks. *)

let rec emit_expr ctx (e : Tast.expr) : string =
  match e.Tast.desc with
  | Tast.Int_lit n -> Fmt.str "(%d)" n
  | Tast.Bool_lit b -> if b then "true" else "false"
  | Tast.Null ty -> (
      match ty with
      | Ty.Subflow -> "(None : int option)"
      | _ -> "(None : Packet.t option)")
  | Tast.Register i -> Fmt.str "(Env.get_register env %d)" i
  | Tast.Slot i -> Fmt.str "(!%s)" (slot_name i)
  | Tast.Not a -> Fmt.str "(not %s)" (emit_expr ctx a)
  | Tast.Neg a -> Fmt.str "(- %s)" (emit_expr ctx a)
  | Tast.Binop (op, a, b) -> emit_binop ctx op a b
  | Tast.Subflows -> "(List.init (Array.length env.Env.subflows) Fun.id)"
  | Tast.Sbf_filter (l, lam) ->
      Fmt.str "(List.filter (fun __i -> %s := Some __i; %s) %s)"
        (slot_name lam.Tast.param) (emit_expr ctx lam.Tast.body)
        (emit_expr ctx l)
  | Tast.Sbf_min (l, lam) -> emit_sbf_select ctx ~cmp:"<" l lam
  | Tast.Sbf_max (l, lam) -> emit_sbf_select ctx ~cmp:">" l lam
  | Tast.Sbf_sum (l, lam) ->
      Fmt.str
        "(List.fold_left (fun __acc __i -> %s := Some __i; __acc + %s) 0 %s)"
        (slot_name lam.Tast.param) (emit_expr ctx lam.Tast.body)
        (emit_expr ctx l)
  | Tast.Sbf_get (l, idx) ->
      Fmt.str "(let __n = %s in if __n < 0 then None else List.nth_opt %s __n)"
        (emit_expr ctx idx) (emit_expr ctx l)
  | Tast.Sbf_count l -> Fmt.str "(List.length %s)" (emit_expr ctx l)
  | Tast.Sbf_empty l -> Fmt.str "(%s = [])" (emit_expr ctx l)
  | Tast.Sbf_prop (s, prop) ->
      let read =
        Fmt.str
          "(match %s with None -> 0 | Some __i -> Subflow_view.prop_int \
           env.Env.subflows.(__i) Progmp_lang.Props.%s)"
          (emit_expr ctx s)
          (constructor_of_sbf_prop prop)
      in
      if Props.subflow_prop_type prop = Ty.Bool then Fmt.str "(%s <> 0)" read
      else read
  | Tast.Has_window_for (s, p) ->
      Fmt.str
        "(match (%s, %s) with Some __i, Some __p -> \
         Subflow_view.has_window_for env.Env.subflows.(__i) __p | _ -> false)"
        (emit_expr ctx s) (emit_expr ctx p)
  | Tast.Q_top view ->
      Fmt.str "(match %s with Some (_, __p) -> Some __p | None -> None)"
        (emit_scan ctx view)
  | Tast.Q_pop view ->
      Fmt.str
        "(let __q = %s in match %s with Some (__i, _) -> let __p = \
         Pqueue.remove_at __q __i in Env.record_pop env __q __p; Some __p | \
         None -> None)"
        (queue_expr view.Tast.base) (emit_scan ctx view)
  | Tast.Q_min (view, lam) -> emit_q_select ctx ~cmp:"<" view lam
  | Tast.Q_max (view, lam) -> emit_q_select ctx ~cmp:">" view lam
  | Tast.Q_count view ->
      Fmt.str
        "(let __q = %s in let rec __count __i __n = match Pqueue.nth __q __i \
         with None -> __n | Some __p -> __count (__i + 1) (if %s then __n + 1 \
         else __n) in __count 0 0)"
        (queue_expr view.Tast.base)
        (emit_filters ctx view.Tast.filters "__p")
  | Tast.Q_empty view ->
      Fmt.str "(%s = None)" (emit_scan ctx view)
  | Tast.Pkt_prop (p, prop) ->
      let field =
        match prop with
        | Props.Size -> "__p.Packet.size"
        | Props.Seq -> "__p.Packet.seq"
        | Props.Sent_count -> "__p.Packet.sent_count"
        | Props.User_prop i -> Fmt.str "Packet.user_prop __p %d" i
      in
      Fmt.str "(match %s with None -> 0 | Some __p -> %s)" (emit_expr ctx p)
        field
  | Tast.Sent_on (p, s) ->
      Fmt.str
        "(match (%s, %s) with Some __p, Some __i -> Packet.sent_on __p \
         ~sbf_id:env.Env.subflows.(__i).Subflow_view.id | _ -> false)"
        (emit_expr ctx p) (emit_expr ctx s)

and constructor_of_sbf_prop (prop : Props.subflow_prop) =
  match prop with
  | Props.Rtt -> "Rtt"
  | Props.Rtt_avg -> "Rtt_avg"
  | Props.Rtt_var -> "Rtt_var"
  | Props.Cwnd -> "Cwnd"
  | Props.Ssthresh -> "Ssthresh"
  | Props.Skbs_in_flight -> "Skbs_in_flight"
  | Props.Queued -> "Queued"
  | Props.Lost_skbs -> "Lost_skbs"
  | Props.Is_backup -> "Is_backup"
  | Props.Tsq_throttled -> "Tsq_throttled"
  | Props.Lossy -> "Lossy"
  | Props.Sbf_id -> "Sbf_id"
  | Props.Rto -> "Rto"
  | Props.Throughput -> "Throughput"
  | Props.Mss -> "Mss"

and queue_expr : Tast.queue_id -> string = function
  | Tast.Send_queue -> "env.Env.q"
  | Tast.Unacked_queue -> "env.Env.qu"
  | Tast.Reinject_queue -> "env.Env.rq"

(* A boolean expression deciding whether packet [var] passes all filters
   of the view (filters set their lambda slot first). *)
and emit_filters ctx (filters : Tast.lambda list) var =
  match filters with
  | [] -> "true"
  | _ ->
      String.concat " && "
        (List.map
           (fun (lam : Tast.lambda) ->
             Fmt.str "(%s := Some %s; %s)" (slot_name lam.Tast.param) var
               (emit_expr ctx lam.Tast.body))
           filters)

(* Scan expression: evaluates to [(index, packet) option], the first
   packet of the view's base queue passing all filters. *)
and emit_scan ctx (view : Tast.queue_view) =
  Fmt.str
    "(let __q = %s in let rec __scan __i = match Pqueue.nth __q __i with None \
     -> None | Some __p -> if %s then Some (__i, __p) else __scan (__i + 1) \
     in __scan 0)"
    (queue_expr view.Tast.base)
    (emit_filters ctx view.Tast.filters "__p")

and emit_sbf_select ctx ~cmp l (lam : Tast.lambda) =
  Fmt.str
    "(match List.fold_left (fun __acc __i -> %s := Some __i; let __k = %s in \
     match __acc with Some (_, __bk) when not (__k %s __bk) -> __acc | _ -> \
     Some (__i, __k)) None %s with Some (__i, _) -> Some __i | None -> None)"
    (slot_name lam.Tast.param) (emit_expr ctx lam.Tast.body) cmp
    (emit_expr ctx l)

and emit_q_select ctx ~cmp (view : Tast.queue_view) (lam : Tast.lambda) =
  Fmt.str
    "(let __q = %s in let rec __sel __i __best = match Pqueue.nth __q __i \
     with None -> (match __best with Some (__p, _) -> Some __p | None -> \
     None) | Some __p -> __sel (__i + 1) (if %s then (%s := Some __p; let __k \
     = %s in match __best with Some (_, __bk) when not (__k %s __bk) -> \
     __best | _ -> Some (__p, __k)) else __best) in __sel 0 None)"
    (queue_expr view.Tast.base)
    (emit_filters ctx view.Tast.filters "__p")
    (slot_name lam.Tast.param) (emit_expr ctx lam.Tast.body) cmp

(* Operands evaluate left to right, like the interpreter's and the
   bytecode's: OCaml leaves the order of an operator's operands
   unspecified, so both are bound first. *)
and emit_binop ctx op (a : Tast.expr) (b : Tast.expr) =
  let ea = emit_expr ctx a and eb = emit_expr ctx b in
  let strict fmt =
    let x = fresh ctx "a" and y = fresh ctx "b" in
    Fmt.str "(let %s = %s in let %s = %s in %s)" x ea y eb (fmt x y)
  in
  match op with
  | Tast.Add -> strict (Fmt.str "%s + %s")
  | Tast.Sub -> strict (Fmt.str "%s - %s")
  | Tast.Mul -> strict (Fmt.str "%s * %s")
  | Tast.Div -> strict (fun x y -> Fmt.str "if %s = 0 then 0 else %s / %s" y x y)
  | Tast.Mod ->
      strict (fun x y -> Fmt.str "if %s = 0 then 0 else %s mod %s" y x y)
  | Tast.Lt -> strict (Fmt.str "%s < %s")
  | Tast.Le -> strict (Fmt.str "%s <= %s")
  | Tast.Gt -> strict (Fmt.str "%s > %s")
  | Tast.Ge -> strict (Fmt.str "%s >= %s")
  | Tast.And -> Fmt.str "(%s && %s)" ea eb
  | Tast.Or -> Fmt.str "(%s || %s)" ea eb
  | Tast.Eq | Tast.Neq ->
      let eq =
        match a.Tast.ty with
        | Ty.Packet ->
            strict
              (Fmt.str
                 "(match (%s, %s) with None, None -> true | Some __x, Some \
                  __y -> __x.Packet.id = __y.Packet.id | _ -> false)")
        | _ -> strict (Fmt.str "%s = %s")
      in
      if op = Tast.Eq then eq else Fmt.str "(not %s)" eq

let rec emit_stmt ctx ~indent (s : Tast.stmt) =
  let pad = String.make indent ' ' in
  match s with
  | Tast.Var_decl (slot, e) ->
      buf_add ctx.buf
        (Fmt.str "%s%s := %s;\n" pad (slot_name slot) (emit_expr ctx e))
  | Tast.If (cond, then_, else_) ->
      buf_add ctx.buf (Fmt.str "%sif %s then begin\n" pad (emit_expr ctx cond));
      emit_block ctx ~indent:(indent + 2) then_;
      buf_add ctx.buf (Fmt.str "%send else begin\n" pad);
      emit_block ctx ~indent:(indent + 2) else_;
      buf_add ctx.buf (Fmt.str "%send;\n" pad)
  | Tast.Foreach (slot, src, body) ->
      let v = fresh ctx "it" in
      buf_add ctx.buf
        (Fmt.str "%sList.iter (fun %s ->\n%s  %s := Some %s;\n" pad v pad
           (slot_name slot) v);
      emit_block ctx ~indent:(indent + 2) body;
      buf_add ctx.buf (Fmt.str "%s) %s;\n" pad (emit_expr ctx src))
  | Tast.Set_register (r, e) ->
      buf_add ctx.buf
        (Fmt.str "%sEnv.set_register env %d %s;\n" pad r (emit_expr ctx e))
  | Tast.Push (s, p) ->
      buf_add ctx.buf
        (Fmt.str
           "%s(match (%s, %s) with\n\
            %s | Some __i, Some __p ->\n\
            %s     Env.emit_push env \
            ~sbf_id:env.Env.subflows.(__i).Subflow_view.id __p\n\
            %s | _ -> ());\n"
           pad (emit_expr ctx s) (emit_expr ctx p) pad pad pad)
  | Tast.Drop e ->
      buf_add ctx.buf
        (Fmt.str
           "%s(match %s with Some __p -> Env.emit_drop env __p | None -> \
            ());\n"
           pad (emit_expr ctx e))
  | Tast.Return -> buf_add ctx.buf (Fmt.str "%sraise Return__;\n" pad)

and emit_block ctx ~indent (b : Tast.block) =
  if b = [] then buf_add ctx.buf (Fmt.str "%s();\n" (String.make indent ' '))
  else List.iter (emit_stmt ctx ~indent) b

let slot_init (ty : Ty.t) =
  match ty with
  | Ty.Int -> "ref 0"
  | Ty.Bool -> "ref false"
  | Ty.Packet -> "ref (None : Packet.t option)"
  | Ty.Subflow -> "ref (None : int option)"
  | Ty.Subflow_list -> "ref ([] : int list)"
  | Ty.Queue -> assert false (* not storable *)

(** Render [program] as a standalone OCaml module exposing [engine]. *)
let emit ?(name = "generated scheduler") (p : Tast.program) : string =
  let ctx = { buf = Buffer.create 4096; fresh = 0 } in
  buf_add ctx.buf
    (Fmt.str
       "(* OCaml engine generated by progmp gen-ocaml from %s.\n\
       \   Install with: Scheduler.install_custom sched ~name:\"generated\" \
        engine.\n\
       \   Do not edit: regenerate instead. *)\n\n\
        open Progmp_runtime\n\n\
        exception Return__\n\n\
        let engine (env : Env.t) : unit =\n"
       name);
  for i = 0 to p.Tast.num_slots - 1 do
    buf_add ctx.buf
      (Fmt.str "  let %s = %s in\n" (slot_name i)
         (slot_init p.Tast.slot_types.(i)))
  done;
  for i = 0 to p.Tast.num_slots - 1 do
    buf_add ctx.buf (Fmt.str "  ignore %s;\n" (slot_name i))
  done;
  buf_add ctx.buf "  try\n";
  emit_block ctx ~indent:4 p.Tast.body;
  buf_add ctx.buf "  with Return__ -> ()\n";
  Buffer.contents ctx.buf
