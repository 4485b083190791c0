(** QCheck generators: random well-typed scheduler programs (by
    construction) and random scheduling environments. Used to
    differential-test the three execution backends and to fuzz the
    compiler pipeline. *)

open Progmp_lang
module G = QCheck2.Gen

let ( let* ) = G.( let* )

let e d = Ast.mk_expr d

(* A typing context mapping in-scope variable names to their types, plus
   a counter for fresh names (freshness guarantees no shadowing). *)
type ctx = { vars : (string * Ty.t) list; counter : int ref }

let fresh ctx =
  let n = !(ctx.counter) in
  incr ctx.counter;
  Fmt.str "v%d" n

let vars_of ctx ty = List.filter (fun (_, t) -> t = ty) ctx.vars

let int_sbf_props =
  [ "RTT"; "RTT_AVG"; "RTT_VAR"; "CWND"; "SSTHRESH"; "SKBS_IN_FLIGHT";
    "QUEUED"; "ID"; "LOST_SKBS"; "RTO"; "THROUGHPUT"; "MSS" ]

let bool_sbf_props = [ "IS_BACKUP"; "TSQ_THROTTLED"; "LOSSY" ]

let pkt_props = [ "SIZE"; "SEQ"; "SENT_COUNT"; "PROP1"; "PROP2" ]

let queues = [ Ast.Send_queue; Ast.Unacked_queue; Ast.Reinject_queue ]

let member recv name args = e (Ast.Member (recv, name, args))

let lambda ctx ~param_ty ~gen_body =
  let name = fresh ctx in
  let ctx' = { ctx with vars = (name, param_ty) :: ctx.vars } in
  G.map (fun body -> Ast.Arg_lambda { Ast.param = name; body }) (gen_body ctx')

(* Mutually recursive, depth-bounded expression generators. Every
   generated expression is well-typed in [ctx]. *)
let rec gen_int ctx depth : Ast.expr G.t =
  let leaves =
    [ G.map (fun n -> e (Ast.Int (abs n mod 100))) G.small_int;
      G.map (fun r -> e (Ast.Register (abs r mod 6))) G.small_int ]
    @
    match vars_of ctx Ty.Int with
    | [] -> []
    | vs -> [ G.map (fun i -> e (Ast.Var (fst (List.nth vs (abs i mod List.length vs))))) G.small_int ]
  in
  if depth <= 0 then G.oneof leaves
  else
    G.oneof
      (leaves
      @ [
          (let* op = G.oneofl [ Ast.Add; Ast.Sub; Ast.Mul; Ast.Div; Ast.Mod ] in
           let* a = gen_int ctx (depth - 1) in
           let* b = gen_int ctx (depth - 1) in
           G.return (e (Ast.Binop (op, a, b))));
          (let* a = gen_int ctx (depth - 1) in
           G.return (e (Ast.Unop (Ast.Neg, a))));
          (let* s = gen_subflow ctx (depth - 1) in
           let* p = G.oneofl int_sbf_props in
           G.return (member s p []));
          (let* p = gen_packet_pure ctx (depth - 1) in
           let* prop = G.oneofl pkt_props in
           G.return (member p prop []));
          (let* v = gen_view ctx (depth - 1) in
           G.return (member v "COUNT" []));
          (let* l = gen_sbfs ctx (depth - 1) in
           G.return (member l "COUNT" []));
          (let* l = gen_sbfs ctx (depth - 1) in
           let* lam = lambda ctx ~param_ty:Ty.Subflow ~gen_body:(fun c -> gen_int c (depth - 1)) in
           G.return (member l "SUM" [ lam ]));
        ])

and gen_bool ctx depth : Ast.expr G.t =
  let leaves = [ G.map (fun b -> e (Ast.Bool b)) G.bool ] in
  if depth <= 0 then G.oneof leaves
  else
    G.oneof
      (leaves
      @ [
          (let* op = G.oneofl [ Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge; Ast.Eq; Ast.Neq ] in
           let* a = gen_int ctx (depth - 1) in
           let* b = gen_int ctx (depth - 1) in
           G.return (e (Ast.Binop (op, a, b))));
          (let* op = G.oneofl [ Ast.And; Ast.Or ] in
           let* a = gen_bool ctx (depth - 1) in
           let* b = gen_bool ctx (depth - 1) in
           G.return (e (Ast.Binop (op, a, b))));
          (let* a = gen_bool ctx (depth - 1) in
           G.return (e (Ast.Unop (Ast.Not, a))));
          (let* s = gen_subflow ctx (depth - 1) in
           let* p = G.oneofl bool_sbf_props in
           G.return (member s p []));
          (let* s = gen_subflow ctx (depth - 1) in
           G.return (e (Ast.Binop (Ast.Neq, s, e Ast.Null))));
          (let* p = gen_packet_pure ctx (depth - 1) in
           G.return (e (Ast.Binop (Ast.Eq, p, e Ast.Null))));
          (let* p = gen_packet_pure ctx (depth - 1) in
           let* s = gen_subflow ctx (depth - 1) in
           G.return (member p "SENT_ON" [ Ast.Arg_expr s ]));
          (let* s = gen_subflow ctx (depth - 1) in
           let* p = gen_packet_pure ctx (depth - 1) in
           G.return (member s "HAS_WINDOW_FOR" [ Ast.Arg_expr p ]));
          (let* v = gen_view ctx (depth - 1) in
           G.return (member v "EMPTY" []));
          (let* l = gen_sbfs ctx (depth - 1) in
           G.return (member l "EMPTY" []));
        ])

and gen_subflow ctx depth : Ast.expr G.t =
  let from_list =
    let* l = gen_sbfs ctx (if depth <= 0 then 0 else depth - 1) in
    G.oneof
      [
        (let* lam =
           lambda ctx ~param_ty:Ty.Subflow ~gen_body:(fun c ->
               gen_int c (max 0 (depth - 1)))
         in
         let* op = G.oneofl [ "MIN"; "MAX" ] in
         G.return (member l op [ lam ]));
        (let* i = gen_int ctx 0 in
         G.return (member l "GET" [ Ast.Arg_expr i ]));
      ]
  in
  match vars_of ctx Ty.Subflow with
  | [] -> from_list
  | vs ->
      G.oneof
        [
          from_list;
          G.map
            (fun i -> e (Ast.Var (fst (List.nth vs (abs i mod List.length vs)))))
            G.small_int;
        ]

and gen_sbfs ctx depth : Ast.expr G.t =
  let base =
    match vars_of ctx Ty.Subflow_list with
    | [] -> [ G.return (e Ast.Subflows) ]
    | vs ->
        [
          G.return (e Ast.Subflows);
          G.map
            (fun i -> e (Ast.Var (fst (List.nth vs (abs i mod List.length vs)))))
            G.small_int;
        ]
  in
  if depth <= 0 then G.oneof base
  else
    G.oneof
      (base
      @ [
          (let* l = gen_sbfs ctx (depth - 1) in
           let* lam =
             lambda ctx ~param_ty:Ty.Subflow ~gen_body:(fun c ->
                 gen_bool c (depth - 1))
           in
           G.return (member l "FILTER" [ lam ]));
        ])

and gen_view ctx depth : Ast.expr G.t =
  let* q = G.oneofl queues in
  let base = e (Ast.Queue q) in
  if depth <= 0 then G.return base
  else
    let* nfilters = G.int_bound 2 in
    let rec add acc n =
      if n = 0 then G.return acc
      else
        let* lam =
          lambda ctx ~param_ty:Ty.Packet ~gen_body:(fun c ->
              gen_bool c (depth - 1))
        in
        add (member acc "FILTER" [ lam ]) (n - 1)
    in
    add base nfilters

and gen_packet_pure ctx depth : Ast.expr G.t =
  let from_view =
    let* v = gen_view ctx (if depth <= 0 then 0 else depth - 1) in
    G.oneof
      [
        G.return (member v "TOP" []);
        (let* lam =
           lambda ctx ~param_ty:Ty.Packet ~gen_body:(fun c ->
               gen_int c (max 0 (depth - 1)))
         in
         let* op = G.oneofl [ "MIN"; "MAX" ] in
         G.return (member v op [ lam ]));
      ]
  in
  match vars_of ctx Ty.Packet with
  | [] -> from_view
  | vs ->
      G.oneof
        [
          from_view;
          G.map
            (fun i -> e (Ast.Var (fst (List.nth vs (abs i mod List.length vs)))))
            G.small_int;
        ]

(* Packet expression in an effect-permitted position: may POP. *)
and gen_packet_eff ctx depth : Ast.expr G.t =
  G.oneof
    [
      gen_packet_pure ctx depth;
      (let* v = gen_view ctx depth in
       G.return (member v "POP" []));
    ]

(* Int expression in an effect-permitted position: its operands may
   read a popped packet ([Q.POP().SEQ - Q.POP().SEQ]), so the order in
   which an engine evaluates operands decides which packet each POP
   removes, and the differential suites see any disagreement. *)
let rec gen_int_eff ctx depth : Ast.expr G.t =
  let popped =
    let* v = gen_view ctx (max 0 (depth - 1)) in
    (* mostly SEQ: the generated environments give every packet the
       same size, so only seqs tell popped packets apart *)
    let* prop = G.frequencyl [ (3, "SEQ"); (1, "SIZE") ] in
    G.return (member (member v "POP" []) prop [])
  in
  if depth <= 0 then G.oneof [ gen_int ctx 0; popped ]
  else
    G.frequency
      [
        (1, gen_int ctx depth);
        (1, popped);
        ( 2,
          let* op = G.oneofl [ Ast.Add; Ast.Sub; Ast.Mul; Ast.Div; Ast.Mod ] in
          let* a = gen_int_eff ctx (depth - 1) in
          let* b = gen_int_eff ctx (depth - 1) in
          G.return (e (Ast.Binop (op, a, b))) );
      ]

let gen_storable ctx depth : (Ast.expr * Ty.t) G.t =
  let* choice = G.int_bound 4 in
  match choice with
  | 0 -> G.map (fun x -> (x, Ty.Int)) (gen_int_eff ctx depth)
  | 1 -> G.map (fun x -> (x, Ty.Bool)) (gen_bool ctx depth)
  | 2 -> G.map (fun x -> (x, Ty.Subflow)) (gen_subflow ctx depth)
  | 3 -> G.map (fun x -> (x, Ty.Subflow_list)) (gen_sbfs ctx depth)
  | _ -> G.map (fun x -> (x, Ty.Packet)) (gen_packet_eff ctx depth)

let rec gen_stmt ctx depth : (Ast.stmt * ctx) G.t =
  let push =
    let* s = gen_subflow ctx depth in
    let* p = gen_packet_eff ctx depth in
    G.return
      (Ast.mk_stmt (Ast.Expr_stmt (member s "PUSH" [ Ast.Arg_expr p ])), ctx)
  in
  let decl =
    let* rhs, ty = gen_storable ctx depth in
    let name = fresh ctx in
    G.return
      ( Ast.mk_stmt (Ast.Var_decl (name, rhs)),
        { ctx with vars = (name, ty) :: ctx.vars } )
  in
  let setr =
    let* r = G.int_bound 5 in
    let* v = gen_int ctx depth in
    G.return (Ast.mk_stmt (Ast.Set_register (r, v)), ctx)
  in
  let dropp =
    let* v = gen_view ctx depth in
    G.return (Ast.mk_stmt (Ast.Drop (member v "POP" [])), ctx)
  in
  if depth <= 0 then G.oneof [ push; decl; setr ]
  else
    let ifst =
      let* cond = gen_bool ctx depth in
      let* then_ = gen_block ctx (depth - 1) 2 in
      let* has_else = G.bool in
      let* else_ =
        if has_else then G.map Option.some (gen_block ctx (depth - 1) 2)
        else G.return None
      in
      G.return (Ast.mk_stmt (Ast.If (cond, then_, else_)), ctx)
    in
    let foreach =
      let* src = gen_sbfs ctx depth in
      let name = fresh ctx in
      let ctx' = { ctx with vars = (name, Ty.Subflow) :: ctx.vars } in
      let* body = gen_block ctx' (depth - 1) 2 in
      G.return (Ast.mk_stmt (Ast.Foreach (name, src, body)), ctx)
    in
    (* [VAR x = <arithmetic over POPs>; SET(R, x)] in one block: the
       register the differential compares receives a value that
       depends on the order an engine evaluates the operands in *)
    let observed_pops =
      let* rhs = gen_int_eff ctx depth in
      let* r = G.int_bound 5 in
      let name = fresh ctx in
      G.return
        ( Ast.mk_stmt
            (Ast.If
               ( e (Ast.Bool true),
                 [
                   Ast.mk_stmt (Ast.Var_decl (name, rhs));
                   Ast.mk_stmt (Ast.Set_register (r, e (Ast.Var name)));
                 ],
                 None )),
          ctx )
    in
    G.oneof [ push; decl; setr; dropp; ifst; foreach; observed_pops ]

and gen_block ctx depth max_len : Ast.block G.t =
  let* len = G.int_range 1 max_len in
  let rec go ctx n acc =
    if n = 0 then G.return (List.rev acc)
    else
      let* stmt, ctx' = gen_stmt ctx depth in
      go ctx' (n - 1) (stmt :: acc)
  in
  go ctx len []

(** Random well-typed program (as surface AST). *)
let gen_program : Ast.program G.t =
  let ctx = { vars = []; counter = ref 0 } in
  let* depth = G.int_range 1 3 in
  gen_block ctx depth 4

(* ---------- random environments ---------- *)

let gen_view_spec : Progmp_runtime.Subflow_view.t G.t =
  let open Progmp_runtime in
  let* rtt = G.int_range 1_000 100_000 in
  let* cwnd = G.int_range 1 32 in
  let* inflight = G.int_range 0 32 in
  let* queued = G.int_range 0 8 in
  let* backup = G.bool in
  let* throttled = G.bool in
  let* lossy = G.bool in
  let* rttvar = G.int_range 0 20_000 in
  G.return
    {
      Subflow_view.default with
      Subflow_view.rtt_us = rtt;
      rtt_avg_us = rtt;
      rtt_var_us = rttvar;
      cwnd;
      skbs_in_flight = inflight;
      queued;
      is_backup = backup;
      tsq_throttled = throttled;
      lossy;
      throughput_bps = cwnd * 1448 * 1_000_000 / rtt;
    }

let gen_env_spec : Helpers.env_spec G.t =
  let* nsbf = G.int_bound 4 in
  let* views = G.list_repeat nsbf gen_view_spec in
  let views = List.mapi (fun i v -> { v with Progmp_runtime.Subflow_view.id = i }) views in
  let* nq = G.int_bound 6 in
  let* nqu = G.int_bound 5 in
  (* one (in_rq, sent_mask) pair per QU entry, so shrinking stays
     consistent *)
  let* qu_entries =
    G.list_repeat nqu
      (G.pair G.bool (G.int_bound (max 1 ((1 lsl max 1 nsbf) - 1))))
  in
  let q_seqs = List.init nq Fun.id in
  let qu_seqs =
    List.mapi
      (fun i (_, mask) ->
        let sent_on =
          List.filteri
            (fun b _ -> mask land (1 lsl b) <> 0)
            (List.init (max 1 nsbf) Fun.id)
        in
        (100 + i, sent_on))
      qu_entries
  in
  let rq_seqs =
    List.filteri (fun i _ -> fst (List.nth qu_entries i)) (List.map fst qu_seqs)
  in
  let* r1 = G.int_bound 1000 in
  let* r2 = G.int_bound 2 in
  G.return
    {
      Helpers.q_seqs;
      qu_seqs;
      rq_seqs;
      views;
      regs = [ (0, r1); (1, r2) ];
    }
