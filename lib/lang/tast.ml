(** Typed intermediate representation of scheduler programs.

    Produced by {!Typecheck.check} from the surface {!Ast}; consumed by the
    runtime interpreter, the optimizer and the eBPF-style cross-compiler.
    Compared to the surface syntax:

    - variables (including lambda parameters and [FOREACH] iteration
      variables) are resolved to numbered slots;
    - member names are resolved to property enums and typed operations;
    - every queue expression is a {e view}: a base queue plus a stack of
      filter predicates, evaluated with late materialization;
    - effect checking has already happened — [POP] only occurs in
      effect-permitted positions, predicates are pure. *)

type queue_id = Ast.queue_id = Send_queue | Unacked_queue | Reinject_queue

type binop = Ast.binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Eq
  | Neq
  | Lt
  | Le
  | Gt
  | Ge
  | And
  | Or

type expr = { desc : desc; ty : Ty.t; loc : Loc.t }

(** A one-parameter predicate/key function; the parameter lives in slot
    [param]. *)
and lambda = { param : int; param_ty : Ty.t; body : expr }

(** A queue view: the base kernel queue with zero or more filters applied
    lazily ("late materialization", paper §4.1). Views are never stored in
    variables. *)
and queue_view = { base : queue_id; filters : lambda list }

and desc =
  | Int_lit of int
  | Bool_lit of bool
  | Null of Ty.t  (** typed NULL; [ty] is [Packet] or [Subflow] *)
  | Register of int
  | Slot of int  (** local variable / lambda parameter / loop variable *)
  | Binop of binop * expr * expr
  | Not of expr
  | Neg of expr
  | Subflows  (** the full current subflow set *)
  | Sbf_filter of expr * lambda  (** subflow list -> subflow list *)
  | Sbf_min of expr * lambda  (** subflow list -> nullable subflow *)
  | Sbf_max of expr * lambda
  | Sbf_sum of expr * lambda  (** subflow list -> int *)
  | Sbf_get of expr * expr  (** list, index -> nullable subflow *)
  | Sbf_count of expr
  | Sbf_empty of expr
  | Sbf_prop of expr * Props.subflow_prop
  | Has_window_for of expr * expr  (** subflow, packet -> bool *)
  | Q_top of queue_view  (** first matching packet, not removed *)
  | Q_pop of queue_view  (** first matching packet, removed (effectful) *)
  | Q_min of queue_view * lambda  (** matching packet minimizing key *)
  | Q_max of queue_view * lambda
  | Q_count of queue_view
  | Q_empty of queue_view
  | Pkt_prop of expr * Props.packet_prop
  | Sent_on of expr * expr  (** packet, subflow -> bool *)

type stmt =
  | Var_decl of int * expr
  | If of expr * block * block
  | Foreach of int * expr * block  (** slot iterates over a subflow list *)
  | Set_register of int * expr
  | Push of expr * expr  (** subflow, packet *)
  | Drop of expr  (** evaluate for effect; discard the packet *)
  | Return

and block = stmt list

type program = {
  body : block;
  num_slots : int;  (** total variable slots used (frame size) *)
  slot_types : Ty.t array;
  source : string;  (** original specification text, for diagnostics *)
}

(** Fold over every expression in a program (pre-order), for analyses.
    Plain mutual recursion: no closure is built per node. *)
let rec fold_expr f acc (e : expr) =
  let acc = f acc e in
  match e.desc with
  | Int_lit _ | Bool_lit _ | Null _ | Register _ | Slot _ | Subflows -> acc
  | Binop (_, a, b) -> fold_expr f (fold_expr f acc a) b
  | Not a | Neg a -> fold_expr f acc a
  | Sbf_filter (l, lam) | Sbf_min (l, lam) | Sbf_max (l, lam) | Sbf_sum (l, lam)
    ->
      fold_expr f (fold_expr f acc l) lam.body
  | Sbf_get (l, i) -> fold_expr f (fold_expr f acc l) i
  | Sbf_count l | Sbf_empty l -> fold_expr f acc l
  | Sbf_prop (s, _) -> fold_expr f acc s
  | Has_window_for (s, p) | Sent_on (p, s) -> fold_expr f (fold_expr f acc p) s
  | Q_top v | Q_pop v | Q_count v | Q_empty v -> fold_filters f acc v.filters
  | Q_min (v, lam) | Q_max (v, lam) ->
      fold_expr f (fold_filters f acc v.filters) lam.body
  | Pkt_prop (p, _) -> fold_expr f acc p

and fold_filters f acc = function
  | [] -> acc
  | (l : lambda) :: rest -> fold_filters f (fold_expr f acc l.body) rest

let rec fold_stmts f_expr acc (b : block) =
  match b with
  | [] -> acc
  | stmt :: rest ->
      let acc =
        match stmt with
        | Var_decl (_, e) | Set_register (_, e) | Drop e ->
            fold_expr f_expr acc e
        | If (c, t, e) ->
            let acc = fold_expr f_expr acc c in
            fold_stmts f_expr (fold_stmts f_expr acc t) e
        | Foreach (_, e, body) ->
            fold_stmts f_expr (fold_expr f_expr acc e) body
        | Push (s, p) -> fold_expr f_expr (fold_expr f_expr acc s) p
        | Return -> acc
      in
      fold_stmts f_expr acc rest

(** [uses_pop p] is true when the program contains a [POP] anywhere —
    used by the runtime to decide whether re-triggering can make
    progress. *)
let uses_pop (p : program) =
  fold_stmts
    (fun acc e -> acc || match e.desc with Q_pop _ -> true | _ -> false)
    false p.body

(** [subflow_reads p] is the read set of [p]: the properties it names,
    the three fields [HAS_WINDOW_FOR] consults, and always [ID], which
    [SENT_ON], [PUSH] and the runtime's subflow index use. *)
let subflow_reads (p : program) =
  fold_stmts
    (fun acc e ->
      match e.desc with
      | Sbf_prop (_, prop) -> acc lor Props.read_bit prop
      | Has_window_for _ ->
          acc lor Props.receive_window_bit
          lor Props.read_bit Props.Skbs_in_flight
          lor Props.read_bit Props.Mss
      | _ -> acc)
    (Props.read_bit Props.Sbf_id) p.body
