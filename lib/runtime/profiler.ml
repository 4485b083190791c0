(** Scheduler profiling — the analogue of the paper's proc-based
    debugging interface with "performance profiling traces based on the
    control flow representation of the scheduler specification" (§4.1).

    {!attach} installs an instrumented interpreter on a scheduler that
    counts, per statement of the specification, how often it executed,
    and aggregates execution counts, produced actions and wall time.
    {!report} renders the annotated control flow:

    {v
    scheduler default: 1043 executions, 0.26 ms total, 512 actions
      1043 VAR <slot 0> = ...
      1043 IF (...)
       812 . SET(R1, ...)
    v} *)

open Progmp_lang

(* The program re-shaped as an instrumented tree: every statement carries
   a stable id (pre-order) used to index the hit counters. *)
type istmt = { id : int; depth : int; label : string; node : inode }

and inode =
  | I_simple of Tast.stmt
  | I_if of Tast.expr * istmt list * istmt list
  | I_foreach of int * Tast.expr * istmt list

type t = {
  sched : Scheduler.t;
  body : istmt list;
  hits : int array;
  mutable executions : int;
  mutable actions : int;
  mutable total_time : float;  (** seconds spent inside scheduler runs *)
}

let instrument (p : Tast.program) : istmt list * int =
  let next = ref 0 in
  let fresh () =
    let id = !next in
    incr next;
    id
  in
  let rec walk depth (b : Tast.block) =
    List.map
      (fun stmt ->
        let id = fresh () in
        let mk label node = { id; depth; label; node } in
        match stmt with
        | Tast.Var_decl (slot, _) ->
            mk (Fmt.str "VAR <slot %d> = ..." slot) (I_simple stmt)
        | Tast.If (cond, then_, else_) ->
            (* bind explicitly: argument evaluation order must not decide
               the pre-order ids *)
            let t = walk (depth + 1) then_ in
            let e = walk (depth + 1) else_ in
            mk "IF (...)" (I_if (cond, t, e))
        | Tast.Foreach (slot, src, body) ->
            let b = walk (depth + 1) body in
            mk (Fmt.str "FOREACH (<slot %d> IN ...)" slot) (I_foreach (slot, src, b))
        | Tast.Set_register (r, _) ->
            mk (Fmt.str "SET(R%d, ...)" (r + 1)) (I_simple stmt)
        | Tast.Push (_, _) -> mk "PUSH(...)" (I_simple stmt)
        | Tast.Drop _ -> mk "DROP(...)" (I_simple stmt)
        | Tast.Return -> mk "RETURN" (I_simple stmt))
      b
  in
  let body = walk 0 p.Tast.body in
  (body, !next)

let rec exec_istmt t (frame : Interpreter.frame) (s : istmt) =
  t.hits.(s.id) <- t.hits.(s.id) + 1;
  match s.node with
  | I_simple stmt -> Interpreter.exec_stmt frame stmt
  | I_if (cond, then_, else_) ->
      if Interpreter.eval_int frame cond <> 0 then
        List.iter (exec_istmt t frame) then_
      else List.iter (exec_istmt t frame) else_
  | I_foreach (slot, src, body) ->
      (* the source is a subflow bitmask over snapshot positions *)
      let mask = Interpreter.eval_int frame src in
      for i = 0 to Array.length frame.Interpreter.env.Env.subflows - 1 do
        if mask land (1 lsl i) <> 0 then begin
          frame.Interpreter.ints.(slot) <- i;
          List.iter (exec_istmt t frame) body
        end
      done

let run t (frame : Interpreter.frame) (env : Env.t) =
  frame.Interpreter.env <- env;
  let t0 = Unix.gettimeofday () in
  (try List.iter (exec_istmt t frame) t.body with Interpreter.Returned -> ());
  t.total_time <- t.total_time +. (Unix.gettimeofday () -. t0);
  t.executions <- t.executions + 1;
  t.actions <- t.actions + Env.action_count env

(** Install an instrumented (interpreting) engine on [sched] and return
    the profile handle. Profiling replaces the current engine; re-select
    a backend (e.g. [Scheduler.set_engine sched "interpreter"]) to stop
    profiling. *)
let attach (sched : Scheduler.t) : t =
  let body, count = instrument sched.Scheduler.program in
  let t =
    {
      sched;
      body;
      hits = Array.make (max 1 count) 0;
      executions = 0;
      actions = 0;
      total_time = 0.0;
    }
  in
  Scheduler.install_custom sched ~name:"profiled-interpreter"
    (run t (Interpreter.frame sched.Scheduler.program.Tast.num_slots));
  t

(** Render the annotated control-flow trace (the "proc file" content). *)
let report (t : t) : string =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Fmt.str "scheduler %s: %d executions, %.2f ms total, %d actions\n"
       t.sched.Scheduler.name t.executions (t.total_time *. 1e3) t.actions);
  let rec render (s : istmt) =
    Buffer.add_string buf
      (Fmt.str "%8d %s%s\n" t.hits.(s.id)
         (String.concat "" (List.init s.depth (fun _ -> ". ")))
         s.label);
    match s.node with
    | I_simple _ -> ()
    | I_if (_, then_, else_) ->
        List.iter render then_;
        List.iter render else_
    | I_foreach (_, _, body) -> List.iter render body
  in
  List.iter render t.body;
  Buffer.contents buf

(** Execution statistics as a tuple (executions, actions, total seconds),
    for programmatic access. *)
let stats t = (t.executions, t.actions, t.total_time)
