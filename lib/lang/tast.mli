(** Typed intermediate representation of scheduler programs, produced by
    {!Typecheck.check}: variables resolved to slots, members resolved to
    typed operations, queue expressions normalized to views (base queue
    plus filter stack), and effect positions already validated. *)

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


val fold_expr : ('a -> expr -> 'a) -> 'a -> expr -> 'a
(** Pre-order fold over an expression and its nested lambdas. *)

val fold_stmts : ('a -> expr -> 'a) -> 'a -> block -> 'a
(** Fold [fold_expr] over every expression of a block, recursively. *)

val uses_pop : program -> bool
(** Whether the program contains a [POP] anywhere. *)

val subflow_reads : program -> Props.read_set
(** The program's subflow read set ({!Props.read_set}): every property
    it names, the receive window, in-flight count and MSS when it uses
    [HAS_WINDOW_FOR], and always [ID]. *)
