(** Ahead-of-time compilation backend — execution alternative 2.

    The paper's AOT backend generates and compiles C functions so that
    scheduling runs without a parser or interpreter in the kernel. The
    OCaml analogue is closure compilation: the typed IR is translated
    {e once} into a tree of closures, so per-execution work contains no
    dispatch on the IR constructors. Values are represented as in
    {!Interpreter} (ints, 0/1 booleans, snapshot positions, subflow
    bitmasks, {!Packet.dummy} for NULL) and live in the same typed
    frame. Semantics are identical to {!Interpreter} (the differential
    test suite checks this). *)

open Progmp_lang
open Interpreter

type 'a code = frame -> 'a

exception Returned_aot

let is_null (p : Packet.t) = p == Packet.dummy

let num_subflows fr = Array.length fr.env.Env.subflows

let mem mask i = mask land (1 lsl i) <> 0

let rec compile_matcher (filters : Tast.lambda list) : frame -> Packet.t -> bool
    =
  match filters with
  | [] -> fun _ _ -> true
  | lam :: rest ->
      let body = compile_bool lam.Tast.body in
      let rest = compile_matcher rest in
      let param = lam.Tast.param in
      fun fr pkt ->
        fr.pkts.(param) <- pkt;
        body fr && rest fr pkt

(* Index of the first packet of the view's queue passing its filters,
   or -1. *)
and compile_first (view : Tast.queue_view) : frame -> Pqueue.t -> int =
  let matches = compile_matcher view.Tast.filters in
  let rec go fr q i =
    if i >= Pqueue.length q then -1
    else if matches fr (Pqueue.get q i) then i
    else go fr q (i + 1)
  in
  fun fr q -> go fr q 0

and compile_int (e : Tast.expr) : int code =
  match e.Tast.desc with
  | Tast.Int_lit n -> fun _ -> n
  | Tast.Register i -> fun fr -> Env.get_register fr.env i
  | Tast.Slot i -> fun fr -> fr.ints.(i)
  | Tast.Neg a ->
      let a = compile_int a in
      fun fr -> -a fr
  | Tast.Binop (op, a, b) -> (
      let ca = compile_int a and cb = compile_int b in
      match op with
      | Tast.Add -> fun fr -> let x = ca fr in x + cb fr
      | Tast.Sub -> fun fr -> let x = ca fr in x - cb fr
      | Tast.Mul -> fun fr -> let x = ca fr in x * cb fr
      | Tast.Div ->
          fun fr ->
            let x = ca fr in
            let d = cb fr in
            if d = 0 then 0 else x / d
      | Tast.Mod ->
          fun fr ->
            let x = ca fr in
            let d = cb fr in
            if d = 0 then 0 else x mod d
      | Tast.Eq | Tast.Neq | Tast.Lt | Tast.Le | Tast.Gt | Tast.Ge | Tast.And
      | Tast.Or ->
          (* int-typed Binop is arithmetic only (typechecked) *)
          assert false)
  | Tast.Sbf_sum (l, lam) ->
      let cl = compile_sbfs l in
      let key = compile_int lam.Tast.body in
      let param = lam.Tast.param in
      fun fr ->
        let m = cl fr in
        let sum = ref 0 in
        for i = 0 to num_subflows fr - 1 do
          if mem m i then begin
            fr.ints.(param) <- i;
            sum := !sum + key fr
          end
        done;
        !sum
  | Tast.Sbf_count l ->
      let cl = compile_sbfs l in
      fun fr ->
        let m = ref (cl fr) and n = ref 0 in
        while !m <> 0 do
          m := !m land (!m - 1);
          incr n
        done;
        !n
  | Tast.Sbf_prop (s, prop) ->
      let cs = compile_sbf s in
      fun fr ->
        let i = cs fr in
        if i < 0 then 0 else Subflow_view.prop_int fr.env.Env.subflows.(i) prop
  | Tast.Q_count view ->
      let base = view.Tast.base in
      let matches = compile_matcher view.Tast.filters in
      fun fr ->
        let q = Env.queue fr.env base in
        let n = ref 0 in
        for i = 0 to Pqueue.length q - 1 do
          if matches fr (Pqueue.get q i) then incr n
        done;
        !n
  | Tast.Pkt_prop (p, prop) -> (
      let cp = compile_pkt p in
      match prop with
      | Props.Size ->
          fun fr ->
            let pkt = cp fr in
            if is_null pkt then 0 else pkt.Packet.size
      | Props.Seq ->
          fun fr ->
            let pkt = cp fr in
            if is_null pkt then 0 else pkt.Packet.seq
      | Props.Sent_count ->
          fun fr ->
            let pkt = cp fr in
            if is_null pkt then 0 else pkt.Packet.sent_count
      | Props.User_prop i ->
          fun fr ->
            let pkt = cp fr in
            if is_null pkt then 0 else Packet.user_prop pkt i)
  | _ -> fun _ -> raise (Type_bug "aot: expected int expression")

and compile_bool (e : Tast.expr) : bool code =
  match e.Tast.desc with
  | Tast.Bool_lit b -> fun _ -> b
  | Tast.Slot i -> fun fr -> fr.ints.(i) <> 0
  | Tast.Not a ->
      let a = compile_bool a in
      fun fr -> not (a fr)
  | Tast.Binop ((Tast.And | Tast.Or) as op, a, b) ->
      let ca = compile_bool a and cb = compile_bool b in
      if op = Tast.And then fun fr -> ca fr && cb fr
      else fun fr -> ca fr || cb fr
  | Tast.Binop ((Tast.Lt | Tast.Le | Tast.Gt | Tast.Ge) as op, a, b) -> (
      let ca = compile_int a and cb = compile_int b in
      match op with
      | Tast.Lt -> fun fr -> let x = ca fr in x < cb fr
      | Tast.Le -> fun fr -> let x = ca fr in x <= cb fr
      | Tast.Gt -> fun fr -> let x = ca fr in x > cb fr
      | Tast.Ge -> fun fr -> let x = ca fr in x >= cb fr
      | _ -> assert false)
  | Tast.Binop ((Tast.Eq | Tast.Neq) as op, a, b) ->
      let eq = compile_equality a b in
      if op = Tast.Eq then eq else fun fr -> not (eq fr)
  | Tast.Sbf_empty l ->
      let cl = compile_sbfs l in
      fun fr -> cl fr = 0
  | Tast.Q_empty view ->
      let base = view.Tast.base in
      let first = compile_first view in
      fun fr -> first fr (Env.queue fr.env base) < 0
  | Tast.Sbf_prop (s, prop) ->
      let cs = compile_sbf s in
      fun fr ->
        let i = cs fr in
        i >= 0 && Subflow_view.prop_int fr.env.Env.subflows.(i) prop <> 0
  | Tast.Has_window_for (s, p) ->
      let cs = compile_sbf s and cp = compile_pkt p in
      fun fr ->
        let i = cs fr in
        let pkt = cp fr in
        i >= 0
        && (not (is_null pkt))
        && Subflow_view.has_window_for fr.env.Env.subflows.(i) pkt
  | Tast.Sent_on (p, s) ->
      let cp = compile_pkt p and cs = compile_sbf s in
      fun fr ->
        let pkt = cp fr in
        let i = cs fr in
        (not (is_null pkt))
        && i >= 0
        && Packet.sent_on pkt ~sbf_id:fr.env.Env.subflows.(i).Subflow_view.id
  | _ -> fun _ -> raise (Type_bug "aot: expected bool expression")

and compile_equality (a : Tast.expr) (b : Tast.expr) : bool code =
  match a.Tast.ty with
  | Ty.Int ->
      let ca = compile_int a and cb = compile_int b in
      fun fr -> let x = ca fr in x = cb fr
  | Ty.Bool ->
      let ca = compile_bool a and cb = compile_bool b in
      fun fr -> let x = ca fr in x = cb fr
  | Ty.Packet ->
      (* NULL is id 0, which no live packet carries *)
      let ca = compile_pkt a and cb = compile_pkt b in
      fun fr -> let x = ca fr in x.Packet.id = (cb fr).Packet.id
  | Ty.Subflow ->
      let ca = compile_sbf a and cb = compile_sbf b in
      fun fr -> let x = ca fr in x = cb fr
  | Ty.Subflow_list | Ty.Queue ->
      fun _ -> raise (Type_bug "aot: equality on unsupported type")

and compile_pkt (e : Tast.expr) : Packet.t code =
  match e.Tast.desc with
  | Tast.Null _ -> fun _ -> Packet.dummy
  | Tast.Slot i -> fun fr -> fr.pkts.(i)
  | Tast.Q_top view ->
      let base = view.Tast.base in
      let first = compile_first view in
      fun fr ->
        let q = Env.queue fr.env base in
        let i = first fr q in
        if i < 0 then Packet.dummy else Pqueue.get q i
  | Tast.Q_pop view ->
      let base = view.Tast.base in
      let first = compile_first view in
      fun fr ->
        let q = Env.queue fr.env base in
        let i = first fr q in
        if i < 0 then Packet.dummy
        else begin
          let pkt = Pqueue.remove_at q i in
          Env.record_pop fr.env q pkt;
          pkt
        end
  | Tast.Q_min (view, lam) -> compile_pkt_select ~is_min:true view lam
  | Tast.Q_max (view, lam) -> compile_pkt_select ~is_min:false view lam
  | _ -> fun _ -> raise (Type_bug "aot: expected packet expression")

and compile_pkt_select ~is_min (view : Tast.queue_view) (lam : Tast.lambda) :
    Packet.t code =
  let base = view.Tast.base in
  let matches = compile_matcher view.Tast.filters in
  let key = compile_int lam.Tast.body in
  let param = lam.Tast.param in
  fun fr ->
    let q = Env.queue fr.env base in
    let best = ref (-1) and best_key = ref 0 in
    for i = 0 to Pqueue.length q - 1 do
      let pkt = Pqueue.get q i in
      if matches fr pkt then begin
        fr.pkts.(param) <- pkt;
        let k = key fr in
        if !best < 0 || if is_min then k < !best_key else k > !best_key then begin
          best := i;
          best_key := k
        end
      end
    done;
    if !best < 0 then Packet.dummy else Pqueue.get q !best

(* Subflows: snapshot position, -1 for NULL. *)
and compile_sbf (e : Tast.expr) : int code =
  match e.Tast.desc with
  | Tast.Null _ -> fun _ -> -1
  | Tast.Slot i -> fun fr -> fr.ints.(i)
  | Tast.Sbf_min (l, lam) -> compile_sbf_select ~is_min:true l lam
  | Tast.Sbf_max (l, lam) -> compile_sbf_select ~is_min:false l lam
  | Tast.Sbf_get (l, idx) ->
      let cl = compile_sbfs l and ci = compile_int idx in
      fun fr ->
        let m = cl fr in
        let n = ci fr in
        let found = ref (-1) and seen = ref 0 and i = ref 0 in
        while !found < 0 && !i < num_subflows fr && n >= 0 do
          if mem m !i then begin
            if !seen = n then found := !i;
            incr seen
          end;
          incr i
        done;
        !found
  | _ -> fun _ -> raise (Type_bug "aot: expected subflow expression")

and compile_sbf_select ~is_min l (lam : Tast.lambda) : int code =
  let cl = compile_sbfs l in
  let key = compile_int lam.Tast.body in
  let param = lam.Tast.param in
  fun fr ->
    let m = cl fr in
    let best = ref (-1) and best_key = ref 0 in
    for i = 0 to num_subflows fr - 1 do
      if mem m i then begin
        fr.ints.(param) <- i;
        let k = key fr in
        if !best < 0 || if is_min then k < !best_key else k > !best_key then begin
          best := i;
          best_key := k
        end
      end
    done;
    !best

(* Subflow sets: bitmask over snapshot positions. *)
and compile_sbfs (e : Tast.expr) : int code =
  match e.Tast.desc with
  | Tast.Subflows -> fun fr -> (1 lsl num_subflows fr) - 1
  | Tast.Slot i -> fun fr -> fr.ints.(i)
  | Tast.Sbf_filter (l, lam) ->
      let cl = compile_sbfs l in
      let pred = compile_bool lam.Tast.body in
      let param = lam.Tast.param in
      fun fr ->
        let m = cl fr in
        let kept = ref 0 in
        for i = 0 to num_subflows fr - 1 do
          if mem m i then begin
            fr.ints.(param) <- i;
            if pred fr then kept := !kept lor (1 lsl i)
          end
        done;
        !kept
  | _ -> fun _ -> raise (Type_bug "aot: expected subflow list expression")

let rec compile_stmt (s : Tast.stmt) : unit code =
  match s with
  | Tast.Var_decl (slot, e) -> (
      match e.Tast.ty with
      | Ty.Int ->
          let c = compile_int e in
          fun fr -> fr.ints.(slot) <- c fr
      | Ty.Bool ->
          let c = compile_bool e in
          fun fr -> fr.ints.(slot) <- (if c fr then 1 else 0)
      | Ty.Subflow ->
          let c = compile_sbf e in
          fun fr -> fr.ints.(slot) <- c fr
      | Ty.Subflow_list ->
          let c = compile_sbfs e in
          fun fr -> fr.ints.(slot) <- c fr
      | Ty.Packet ->
          let c = compile_pkt e in
          fun fr -> fr.pkts.(slot) <- c fr
      | Ty.Queue -> fun _ -> raise (Type_bug "aot: queue value"))
  | Tast.If (cond, then_, else_) ->
      let cc = compile_bool cond in
      let ct = compile_block then_ and ce = compile_block else_ in
      fun fr -> if cc fr then ct fr else ce fr
  | Tast.Foreach (slot, src, body) ->
      let cs = compile_sbfs src in
      let cb = compile_block body in
      fun fr ->
        let m = cs fr in
        for i = 0 to num_subflows fr - 1 do
          if mem m i then begin
            fr.ints.(slot) <- i;
            cb fr
          end
        done
  | Tast.Set_register (r, e) ->
      let c = compile_int e in
      fun fr -> Env.set_register fr.env r (c fr)
  | Tast.Push (s, p) ->
      let cs = compile_sbf s and cp = compile_pkt p in
      fun fr ->
        let i = cs fr in
        let pkt = cp fr in
        if i >= 0 && not (is_null pkt) then
          Env.emit_push fr.env ~sbf_id:fr.env.Env.subflows.(i).Subflow_view.id
            pkt
  | Tast.Drop e ->
      let c = compile_pkt e in
      fun fr ->
        let pkt = c fr in
        if not (is_null pkt) then Env.emit_drop fr.env pkt
  | Tast.Return -> fun _ -> raise_notrace Returned_aot

(* A block is one closure chaining its statements' closures. *)
and compile_block (b : Tast.block) : unit code =
  match List.map compile_stmt b with
  | [] -> fun _ -> ()
  | first :: rest ->
      List.fold_left
        (fun run c fr ->
          run fr;
          c fr)
        first rest

type compiled = { body : unit code; num_slots : int }

(** [compile p] translates the program once into a closure tree. The
    tree holds no mutable state (the frame belongs to the instance), so
    it may be shared by any number of instances and domains. *)
let compile (p : Tast.program) : compiled =
  { body = compile_block p.Tast.body; num_slots = p.Tast.num_slots }

let instantiate { body; num_slots } =
  let fr = frame num_slots in
  fun env ->
    fr.env <- env;
    try body fr with Returned_aot -> ()
