(** Tree-walking interpreter over the typed IR — execution alternative 1
    of the paper's runtime (§4.1), and the semantic reference for the
    compiled backends.

    Graceful-failure semantics ("no exceptions by design"):
    - declarative selections over empty sets yield [NULL];
    - properties of [NULL] entities read as 0 / [false];
    - [PUSH]/[DROP] of [NULL] are no-ops;
    - division and modulo by zero yield 0.

    The walker is typed: every node is evaluated by {!eval_int} or
    {!eval_packet}, chosen by its static type, so no value is ever
    boxed. Ints, booleans (0/1), subflows (snapshot position, -1 for
    NULL) and subflow sets (a bitmask over snapshot positions, the
    encoding [Progmp_compiler.Codegen] gives the bytecode) are all
    ints; a packet is the packet itself, {!Packet.dummy} for NULL.
    Operands are evaluated left to right, like the bytecode engines.

    Queue [FILTER]s are evaluated with late materialization: a view is
    never built; the base queue is scanned by index and each candidate
    packet is tested against the filter stack. *)

open Progmp_lang

(* Only raised on interpreter bugs: the type checker rules these out. *)
exception Type_bug of string

type frame = { mutable env : Env.t; ints : int array; pkts : Packet.t array }

(* The environment a frame points at between executions: never read
   (every execution binds its own first) and never written. *)
let unbound = Env.create ()

let frame n =
  let n = max 1 n in
  { env = unbound; ints = Array.make n 0; pkts = Array.make n Packet.dummy }

let is_null (p : Packet.t) = p == Packet.dummy

let of_bool b = if b then 1 else 0

let mem mask i = mask land (1 lsl i) <> 0

let num_subflows frame = Array.length frame.env.Env.subflows

let rec popcount m acc = if m = 0 then acc else popcount (m land (m - 1)) (acc + 1)

(* Packet [pkt] passes the whole filter stack of a view. *)
let rec matches frame (filters : Tast.lambda list) pkt =
  match filters with
  | [] -> true
  | lam :: rest ->
      frame.pkts.(lam.Tast.param) <- pkt;
      eval_int frame lam.Tast.body <> 0 && matches frame rest pkt

(* Index of the first packet of [q] at or after [i] passing the view's
   filters, or -1. Filters are pure, so the queue cannot change under
   the scan. *)
and first_match frame (view : Tast.queue_view) q i =
  if i >= Pqueue.length q then -1
  else if matches frame view.Tast.filters (Pqueue.get q i) then i
  else first_match frame view q (i + 1)

and count_matches frame (view : Tast.queue_view) q i acc =
  if i >= Pqueue.length q then acc
  else
    count_matches frame view q (i + 1)
      (if matches frame view.Tast.filters (Pqueue.get q i) then acc + 1
       else acc)

(* Matching packet minimizing ([is_min]) or maximizing the key; the
   first of equal keys wins. *)
and select_pkt frame ~is_min (view : Tast.queue_view) (lam : Tast.lambda) =
  let base = view.Tast.base in
  let q = Env.queue frame.env base in
  let best = ref (-1) and best_key = ref 0 in
  for i = 0 to Pqueue.length q - 1 do
    let pkt = Pqueue.get q i in
    if matches frame view.Tast.filters pkt then begin
      frame.pkts.(lam.Tast.param) <- pkt;
      let k = eval_int frame lam.Tast.body in
      if !best < 0 || if is_min then k < !best_key else k > !best_key then begin
        best := i;
        best_key := k
      end
    end
  done;
  if !best < 0 then Packet.dummy else Pqueue.get q !best

(* Subflow of the set minimizing ([is_min]) or maximizing the key, or
   -1; the first of equal keys wins. *)
and select_sbf frame ~is_min l (lam : Tast.lambda) =
  let m = eval_int frame l in
  let best = ref (-1) and best_key = ref 0 in
  for i = 0 to num_subflows frame - 1 do
    if mem m i then begin
      frame.ints.(lam.Tast.param) <- i;
      let k = eval_int frame lam.Tast.body in
      if !best < 0 || if is_min then k < !best_key else k > !best_key then begin
        best := i;
        best_key := k
      end
    end
  done;
  !best

and eval_int frame (e : Tast.expr) : int =
  match e.Tast.desc with
  | Tast.Int_lit n -> n
  | Tast.Bool_lit b -> of_bool b
  | Tast.Null _ -> -1 (* packet NULLs are evaluated by [eval_packet] *)
  | Tast.Register i -> Env.get_register frame.env i
  | Tast.Slot i -> frame.ints.(i)
  | Tast.Not a -> of_bool (eval_int frame a = 0)
  | Tast.Neg a -> -eval_int frame a
  | Tast.Binop (op, a, b) -> eval_binop frame op a b
  | Tast.Subflows -> (1 lsl num_subflows frame) - 1
  | Tast.Sbf_filter (l, lam) ->
      let m = eval_int frame l in
      let kept = ref 0 in
      for i = 0 to num_subflows frame - 1 do
        if mem m i then begin
          frame.ints.(lam.Tast.param) <- i;
          if eval_int frame lam.Tast.body <> 0 then kept := !kept lor (1 lsl i)
        end
      done;
      !kept
  | Tast.Sbf_min (l, lam) -> select_sbf frame ~is_min:true l lam
  | Tast.Sbf_max (l, lam) -> select_sbf frame ~is_min:false l lam
  | Tast.Sbf_sum (l, lam) ->
      let m = eval_int frame l in
      let sum = ref 0 in
      for i = 0 to num_subflows frame - 1 do
        if mem m i then begin
          frame.ints.(lam.Tast.param) <- i;
          sum := !sum + eval_int frame lam.Tast.body
        end
      done;
      !sum
  | Tast.Sbf_get (l, idx) ->
      let m = eval_int frame l in
      let n = eval_int frame idx in
      (* the n-th member in snapshot order; negative and out-of-range
         indices are NULL *)
      let found = ref (-1) and seen = ref 0 and i = ref 0 in
      while !found < 0 && !i < num_subflows frame && n >= 0 do
        if mem m !i then begin
          if !seen = n then found := !i;
          incr seen
        end;
        incr i
      done;
      !found
  | Tast.Sbf_count l -> popcount (eval_int frame l) 0
  | Tast.Sbf_empty l -> of_bool (eval_int frame l = 0)
  | Tast.Sbf_prop (s, prop) ->
      (* booleans read as 0/1 *)
      let i = eval_int frame s in
      if i < 0 then 0 else Subflow_view.prop_int frame.env.Env.subflows.(i) prop
  | Tast.Has_window_for (s, p) ->
      let i = eval_int frame s in
      let pkt = eval_packet frame p in
      of_bool
        (i >= 0 && (not (is_null pkt))
        && Subflow_view.has_window_for frame.env.Env.subflows.(i) pkt)
  | Tast.Q_count view ->
      count_matches frame view (Env.queue frame.env view.Tast.base) 0 0
  | Tast.Q_empty view ->
      of_bool
        (first_match frame view (Env.queue frame.env view.Tast.base) 0 < 0)
  | Tast.Pkt_prop (p, prop) -> (
      let pkt = eval_packet frame p in
      if is_null pkt then 0
      else
        match prop with
        | Props.Size -> pkt.Packet.size
        | Props.Seq -> pkt.Packet.seq
        | Props.Sent_count -> pkt.Packet.sent_count
        | Props.User_prop i -> Packet.user_prop pkt i)
  | Tast.Sent_on (p, s) ->
      let pkt = eval_packet frame p in
      let i = eval_int frame s in
      of_bool
        ((not (is_null pkt))
        && i >= 0
        && Packet.sent_on pkt ~sbf_id:frame.env.Env.subflows.(i).Subflow_view.id)
  | Tast.Q_top _ | Tast.Q_pop _ | Tast.Q_min _ | Tast.Q_max _ ->
      raise (Type_bug "packet expression evaluated as an int")

and eval_binop frame op a b =
  match op with
  (* AND/OR short-circuit, as predicates rely on it. *)
  | Tast.And -> if eval_int frame a <> 0 then eval_int frame b else 0
  | Tast.Or -> if eval_int frame a <> 0 then 1 else eval_int frame b
  | Tast.Eq | Tast.Neq ->
      let equal =
        match a.Tast.ty with
        | Ty.Packet ->
            (* NULL is id 0, which no live packet carries *)
            let x = eval_packet frame a in
            let y = eval_packet frame b in
            x.Packet.id = y.Packet.id
        | Ty.Int | Ty.Bool | Ty.Subflow | Ty.Subflow_list | Ty.Queue ->
            let x = eval_int frame a in
            let y = eval_int frame b in
            x = y
      in
      of_bool (match op with Tast.Eq -> equal | _ -> not equal)
  | Tast.Add | Tast.Sub | Tast.Mul | Tast.Div | Tast.Mod | Tast.Lt | Tast.Le
  | Tast.Gt | Tast.Ge -> (
      let x = eval_int frame a in
      let y = eval_int frame b in
      match op with
      | Tast.Add -> x + y
      | Tast.Sub -> x - y
      | Tast.Mul -> x * y
      | Tast.Div -> if y = 0 then 0 else x / y
      | Tast.Mod -> if y = 0 then 0 else x mod y
      | Tast.Lt -> of_bool (x < y)
      | Tast.Le -> of_bool (x <= y)
      | Tast.Gt -> of_bool (x > y)
      | Tast.Ge -> of_bool (x >= y)
      | Tast.Eq | Tast.Neq | Tast.And | Tast.Or -> assert false)

and eval_packet frame (e : Tast.expr) : Packet.t =
  match e.Tast.desc with
  | Tast.Null _ -> Packet.dummy
  | Tast.Slot i -> frame.pkts.(i)
  | Tast.Q_top view ->
      let q = Env.queue frame.env view.Tast.base in
      let i = first_match frame view q 0 in
      if i < 0 then Packet.dummy else Pqueue.get q i
  | Tast.Q_pop view ->
      let q = Env.queue frame.env view.Tast.base in
      let i = first_match frame view q 0 in
      if i < 0 then Packet.dummy
      else begin
        let pkt = Pqueue.remove_at q i in
        Env.record_pop frame.env q pkt;
        pkt
      end
  | Tast.Q_min (view, lam) -> select_pkt frame ~is_min:true view lam
  | Tast.Q_max (view, lam) -> select_pkt frame ~is_min:false view lam
  | _ -> raise (Type_bug "non-packet expression evaluated as a packet")

exception Returned

let rec exec_stmt frame (s : Tast.stmt) =
  match s with
  | Tast.Var_decl (slot, e) -> (
      match e.Tast.ty with
      | Ty.Packet -> frame.pkts.(slot) <- eval_packet frame e
      | Ty.Int | Ty.Bool | Ty.Subflow | Ty.Subflow_list | Ty.Queue ->
          frame.ints.(slot) <- eval_int frame e)
  | Tast.If (cond, then_, else_) ->
      if eval_int frame cond <> 0 then exec_block frame then_
      else exec_block frame else_
  | Tast.Foreach (slot, src, body) ->
      let m = eval_int frame src in
      for i = 0 to num_subflows frame - 1 do
        if mem m i then begin
          frame.ints.(slot) <- i;
          exec_block frame body
        end
      done
  | Tast.Set_register (r, e) -> Env.set_register frame.env r (eval_int frame e)
  | Tast.Push (s, p) ->
      let i = eval_int frame s in
      let pkt = eval_packet frame p in
      (* graceful: PUSH on NULL is a no-op *)
      if i >= 0 && not (is_null pkt) then
        Env.emit_push frame.env
          ~sbf_id:frame.env.Env.subflows.(i).Subflow_view.id pkt
  | Tast.Drop e ->
      let pkt = eval_packet frame e in
      if not (is_null pkt) then Env.emit_drop frame.env pkt
  | Tast.Return -> raise_notrace Returned

and exec_block frame = function
  | [] -> ()
  | s :: rest ->
      exec_stmt frame s;
      exec_block frame rest

(** A decision function for [p] with its own frame, allocated here once:
    each execution binds the prepared environment and walks the body.
    Actions are buffered in the environment; the caller collects them
    with {!Env.finish_execution}. *)
let instantiate (p : Tast.program) =
  let frame = frame p.Tast.num_slots and body = p.Tast.body in
  fun env ->
    frame.env <- env;
    try exec_block frame body with Returned -> ()
