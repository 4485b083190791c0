(** Ahead-of-time compilation backend — execution alternative 2.

    The paper's AOT backend generates and compiles C functions so that
    scheduling runs without a parser or interpreter in the kernel. The
    OCaml analogue is closure compilation: the typed IR is translated
    {e once} into a tree of closures, so per-execution work contains no
    dispatch on the IR constructors. Semantics are identical to
    {!Interpreter} (the differential test suite checks this). *)

open Progmp_lang
open Interpreter

type frame = { env : Env.t; slots : value array }

type 'a code = frame -> 'a

exception Returned_aot

let rec compile_matcher (filters : Tast.lambda list) : (frame -> Packet.t -> bool)
    =
  match filters with
  | [] -> fun _ _ -> true
  | lam :: rest ->
      let body = compile_bool lam.Tast.body in
      let rest = compile_matcher rest in
      let param = lam.Tast.param in
      fun fr pkt ->
        fr.slots.(param) <- Vpacket (Some pkt);
        body fr && rest fr pkt

and compile_scan (view : Tast.queue_view) :
    frame -> f:(int -> Packet.t -> 'a option) -> 'a option =
  let base = view.Tast.base in
  let matches = compile_matcher view.Tast.filters in
  fun fr ~f ->
    let q = Env.queue fr.env base in
    let rec go i =
      match Pqueue.nth q i with
      | None -> None
      | Some pkt ->
          if matches fr pkt then
            match f i pkt with None -> go (i + 1) | Some _ as r -> r
          else go (i + 1)
    in
    go 0

and compile_int (e : Tast.expr) : int code =
  match e.Tast.desc with
  | Tast.Int_lit n -> fun _ -> n
  | Tast.Register i -> fun fr -> Env.get_register fr.env i
  | Tast.Slot i -> fun fr -> as_int fr.slots.(i)
  | Tast.Neg a ->
      let a = compile_int a in
      fun fr -> -a fr
  | Tast.Binop (op, a, b) -> (
      let ca = compile_int a and cb = compile_int b in
      match op with
      | Tast.Add -> fun fr -> ca fr + cb fr
      | Tast.Sub -> fun fr -> ca fr - cb fr
      | Tast.Mul -> fun fr -> ca fr * cb fr
      | Tast.Div ->
          fun fr ->
            let d = cb fr in
            if d = 0 then 0 else ca fr / d
      | Tast.Mod ->
          fun fr ->
            let d = cb fr in
            if d = 0 then 0 else ca fr mod d
      | Tast.Eq | Tast.Neq | Tast.Lt | Tast.Le | Tast.Gt | Tast.Ge | Tast.And
      | Tast.Or ->
          (* int-typed Binop is arithmetic only (typechecked) *)
          assert false)
  | Tast.Sbf_sum (l, lam) ->
      let cl = compile_sbfs l in
      let key = compile_int lam.Tast.body in
      let param = lam.Tast.param in
      fun fr ->
        List.fold_left
          (fun acc i ->
            fr.slots.(param) <- Vsubflow (Some i);
            acc + key fr)
          0 (cl fr)
  | Tast.Sbf_count l ->
      let cl = compile_sbfs l in
      fun fr -> List.length (cl fr)
  | Tast.Sbf_prop (s, prop) ->
      let cs = compile_sbf s in
      fun fr ->
        (match cs fr with
        | None -> 0
        | Some i -> Subflow_view.prop_int fr.env.Env.subflows.(i) prop)
  | Tast.Q_count view ->
      let scan = compile_scan view in
      fun fr ->
        let n = ref 0 in
        ignore
          (scan fr ~f:(fun _ _ ->
               incr n;
               None));
        !n
  | Tast.Pkt_prop (p, prop) -> (
      let cp = compile_pkt p in
      match prop with
      | Props.Size -> (
          fun fr -> match cp fr with None -> 0 | Some pkt -> pkt.Packet.size)
      | Props.Seq -> (
          fun fr -> match cp fr with None -> 0 | Some pkt -> pkt.Packet.seq)
      | Props.Sent_count -> (
          fun fr ->
            match cp fr with None -> 0 | Some pkt -> pkt.Packet.sent_count)
      | Props.User_prop i -> (
          fun fr ->
            match cp fr with None -> 0 | Some pkt -> Packet.user_prop pkt i))
  | _ -> fun _ -> raise (Type_bug "aot: expected int expression")

and compile_bool (e : Tast.expr) : bool code =
  match e.Tast.desc with
  | Tast.Bool_lit b -> fun _ -> b
  | Tast.Slot i -> fun fr -> as_bool fr.slots.(i)
  | Tast.Not a ->
      let a = compile_bool a in
      fun fr -> not (a fr)
  | Tast.Binop ((Tast.And | Tast.Or) as op, a, b) ->
      let ca = compile_bool a and cb = compile_bool b in
      if op = Tast.And then fun fr -> ca fr && cb fr
      else fun fr -> ca fr || cb fr
  | Tast.Binop ((Tast.Lt | Tast.Le | Tast.Gt | Tast.Ge) as op, a, b) ->
      let ca = compile_int a and cb = compile_int b in
      (match op with
      | Tast.Lt -> fun fr -> ca fr < cb fr
      | Tast.Le -> fun fr -> ca fr <= cb fr
      | Tast.Gt -> fun fr -> ca fr > cb fr
      | Tast.Ge -> fun fr -> ca fr >= cb fr
      | _ -> assert false)
  | Tast.Binop ((Tast.Eq | Tast.Neq) as op, a, b) ->
      let eq = compile_equality a b in
      if op = Tast.Eq then eq else fun fr -> not (eq fr)
  | Tast.Sbf_empty l ->
      let cl = compile_sbfs l in
      fun fr -> cl fr = []
  | Tast.Q_empty view ->
      let scan = compile_scan view in
      fun fr -> scan fr ~f:(fun _ p -> Some p) = None
  | Tast.Sbf_prop (s, prop) ->
      let cs = compile_sbf s in
      fun fr ->
        (match cs fr with
        | None -> false
        | Some i -> Subflow_view.prop_int fr.env.Env.subflows.(i) prop <> 0)
  | Tast.Has_window_for (s, p) ->
      let cs = compile_sbf s and cp = compile_pkt p in
      fun fr ->
        (match (cs fr, cp fr) with
        | Some i, Some pkt ->
            Subflow_view.has_window_for fr.env.Env.subflows.(i) pkt
        | _, _ -> false)
  | Tast.Sent_on (p, s) ->
      let cp = compile_pkt p and cs = compile_sbf s in
      fun fr ->
        (match (cp fr, cs fr) with
        | Some pkt, Some i ->
            Packet.sent_on pkt ~sbf_id:fr.env.Env.subflows.(i).Subflow_view.id
        | _, _ -> false)
  | _ -> fun _ -> raise (Type_bug "aot: expected bool expression")

and compile_equality (a : Tast.expr) (b : Tast.expr) : bool code =
  match a.Tast.ty with
  | Ty.Int ->
      let ca = compile_int a and cb = compile_int b in
      fun fr -> ca fr = cb fr
  | Ty.Bool ->
      let ca = compile_bool a and cb = compile_bool b in
      fun fr -> ca fr = cb fr
  | Ty.Packet ->
      let ca = compile_pkt a and cb = compile_pkt b in
      fun fr ->
        (match (ca fr, cb fr) with
        | None, None -> true
        | Some p, Some q -> p.Packet.id = q.Packet.id
        | None, Some _ | Some _, None -> false)
  | Ty.Subflow ->
      let ca = compile_sbf a and cb = compile_sbf b in
      fun fr -> ca fr = cb fr
  | Ty.Subflow_list | Ty.Queue ->
      fun _ -> raise (Type_bug "aot: equality on unsupported type")

and compile_pkt (e : Tast.expr) : Packet.t option code =
  match e.Tast.desc with
  | Tast.Null _ -> fun _ -> None
  | Tast.Slot i -> fun fr -> as_packet fr.slots.(i)
  | Tast.Q_top view ->
      let scan = compile_scan view in
      fun fr -> scan fr ~f:(fun _ p -> Some p)
  | Tast.Q_pop view ->
      let base = view.Tast.base in
      let scan = compile_scan view in
      fun fr ->
        let q = Env.queue fr.env base in
        scan fr ~f:(fun i p ->
            ignore (Pqueue.remove_at q i);
            Env.record_pop fr.env q p;
            Some p)
  | Tast.Q_min (view, lam) -> compile_pkt_select ~better:( < ) view lam
  | Tast.Q_max (view, lam) -> compile_pkt_select ~better:( > ) view lam
  | _ -> fun _ -> raise (Type_bug "aot: expected packet expression")

and compile_pkt_select ~better (view : Tast.queue_view) (lam : Tast.lambda) :
    Packet.t option code =
  let scan = compile_scan view in
  let key = compile_int lam.Tast.body in
  let param = lam.Tast.param in
  fun fr ->
    let best = ref None in
    ignore
      (scan fr ~f:(fun _ pkt ->
           fr.slots.(param) <- Vpacket (Some pkt);
           let k = key fr in
           (match !best with
           | Some (_, bk) when not (better k bk) -> ()
           | Some _ | None -> best := Some (pkt, k));
           None));
    Option.map fst !best

and compile_sbf (e : Tast.expr) : int option code =
  match e.Tast.desc with
  | Tast.Null _ -> fun _ -> None
  | Tast.Slot i -> fun fr -> as_subflow fr.slots.(i)
  | Tast.Sbf_min (l, lam) -> compile_sbf_select ~better:( < ) l lam
  | Tast.Sbf_max (l, lam) -> compile_sbf_select ~better:( > ) l lam
  | Tast.Sbf_get (l, idx) ->
      let cl = compile_sbfs l and ci = compile_int idx in
      fun fr ->
        let i = ci fr in
        if i < 0 then None else List.nth_opt (cl fr) i
  | _ -> fun _ -> raise (Type_bug "aot: expected subflow expression")

and compile_sbf_select ~better l (lam : Tast.lambda) : int option code =
  let cl = compile_sbfs l in
  let key = compile_int lam.Tast.body in
  let param = lam.Tast.param in
  fun fr ->
    let best =
      List.fold_left
        (fun acc i ->
          fr.slots.(param) <- Vsubflow (Some i);
          let k = key fr in
          match acc with
          | Some (_, bk) when not (better k bk) -> acc
          | Some _ | None -> Some (i, k))
        None (cl fr)
    in
    Option.map fst best

and compile_sbfs (e : Tast.expr) : int list code =
  match e.Tast.desc with
  | Tast.Subflows ->
      fun fr -> List.init (Array.length fr.env.Env.subflows) Fun.id
  | Tast.Slot i -> fun fr -> as_subflows fr.slots.(i)
  | Tast.Sbf_filter (l, lam) ->
      let cl = compile_sbfs l in
      let pred = compile_bool lam.Tast.body in
      let param = lam.Tast.param in
      fun fr ->
        List.filter
          (fun i ->
            fr.slots.(param) <- Vsubflow (Some i);
            pred fr)
          (cl fr)
  | _ -> fun _ -> raise (Type_bug "aot: expected subflow list expression")

(* Compile an expression of statically known type to a boxed value. *)
and compile_value (e : Tast.expr) : value code =
  match e.Tast.ty with
  | Ty.Int ->
      let c = compile_int e in
      fun fr -> Vint (c fr)
  | Ty.Bool ->
      let c = compile_bool e in
      fun fr -> Vbool (c fr)
  | Ty.Packet ->
      let c = compile_pkt e in
      fun fr -> Vpacket (c fr)
  | Ty.Subflow ->
      let c = compile_sbf e in
      fun fr -> Vsubflow (c fr)
  | Ty.Subflow_list ->
      let c = compile_sbfs e in
      fun fr -> Vsubflows (c fr)
  | Ty.Queue -> fun _ -> raise (Type_bug "aot: queue value")

let rec compile_stmt (s : Tast.stmt) : unit code =
  match s with
  | Tast.Var_decl (slot, e) ->
      let c = compile_value e in
      fun fr -> fr.slots.(slot) <- c fr
  | Tast.If (cond, then_, else_) ->
      let cc = compile_bool cond in
      let ct = compile_block then_ and ce = compile_block else_ in
      fun fr -> if cc fr then ct fr else ce fr
  | Tast.Foreach (slot, src, body) ->
      let cs = compile_sbfs src in
      let cb = compile_block body in
      fun fr ->
        List.iter
          (fun i ->
            fr.slots.(slot) <- Vsubflow (Some i);
            cb fr)
          (cs fr)
  | Tast.Set_register (r, e) ->
      let c = compile_int e in
      fun fr -> Env.set_register fr.env r (c fr)
  | Tast.Push (s, p) ->
      let cs = compile_sbf s and cp = compile_pkt p in
      fun fr ->
        (match (cs fr, cp fr) with
        | Some i, Some pkt ->
            Env.emit_push fr.env ~sbf_id:fr.env.Env.subflows.(i).Subflow_view.id
              pkt
        | _, _ -> ())
  | Tast.Drop e ->
      let c = compile_pkt e in
      fun fr -> ( match c fr with Some pkt -> Env.emit_drop fr.env pkt | None -> ())
  | Tast.Return -> fun _ -> raise Returned_aot

and compile_block (b : Tast.block) : unit code =
  let cs = List.map compile_stmt b in
  fun fr -> List.iter (fun c -> c fr) cs

type compiled = { body : unit code; num_slots : int }

(** [compile p] translates the program once into a closure tree. The
    tree holds no mutable state (each execution allocates its own
    frame), so it may be shared by any number of instances and domains. *)
let compile (p : Tast.program) : compiled =
  { body = compile_block p.Tast.body; num_slots = max 1 p.Tast.num_slots }

let instantiate { body; num_slots } env =
  let fr = { env; slots = Array.make num_slots (Vint 0) } in
  try body fr with Returned_aot -> ()
