(** The scheduling environment a program executes against.

    Holds the three queues of the model (Q, QU, RQ), the per-execution
    subflow snapshots, the register file, and the action buffer filled by
    [PUSH]/[DROP]. Both execution backends (the {!Interpreter} and the
    compiled {!Progmp_compiler.Vm}) operate on this same structure, which is
    what makes their differential testing meaningful.

    The structure sits on the per-packet decision path, so per-execution
    state lives in reusable growable buffers rather than freshly
    allocated lists: {!begin_execution} only resets counters, and
    {!finish_execution} checks each pop against the actions. *)

(* Subflow ids are stable, 0-based and < 62 (see Subflow_view); ids in
   this range resolve through a constant-time index refreshed per
   execution. Larger ids (never produced by the simulator) fall back to
   a linear scan. *)
let max_indexed_sbf = 64

type t = {
  q : Pqueue.t;  (** sending queue: data from the application *)
  qu : Pqueue.t;  (** unacknowledged packets in flight *)
  rq : Pqueue.t;  (** reinjection queue: suspected-lost packets *)
  mutable subflows : Subflow_view.t array;  (** snapshot for this execution *)
  registers : int array;  (** R1..R6, persistent across executions *)
  (* action buffer, in program order; [num_actions] live entries *)
  mutable actions : Action.t array;
  mutable num_actions : int;
  (* packets popped during the current execution with their source
     queue, in pop order; [num_popped] live entries *)
  mutable popped_src : Pqueue.t array;
  mutable popped_pkt : Packet.t array;
  mutable num_popped : int;
  (* subflow-id index: [sbf_slot.(id)] is the snapshot position of the
     subflow with that id when [sbf_gen.(id)] matches [generation];
     stale entries are invalidated by bumping [generation] instead of
     clearing the arrays. *)
  mutable sbf_slot : int array;
  mutable sbf_gen : int array;
  mutable generation : int;
  (* register-access masks for the current execution, maintained
     unconditionally (two [lor]s per access, no allocation): bit [i] set
     means R(i+1) was read/written — the raw material for decision
     traces (which registers a scheduler actually consulted) *)
  mutable reg_reads : int;
  mutable reg_writes : int;
}

(* Every mutable field's initial value lives here: {!create} builds a
   record and resets it, and a recycled connection's environment is
   reset in place to exactly that state. Queues shrink back to their
   initial capacity once grown past the retention cap; the scratch
   buffers ([actions], [popped_*], the subflow index) are rewritten
   before they are read, so they keep their size. *)
let reset t =
  Pqueue.reset t.q;
  Pqueue.reset t.qu;
  Pqueue.reset t.rq;
  t.subflows <- [||];
  Array.fill t.registers 0 (Array.length t.registers) 0;
  t.num_actions <- 0;
  t.num_popped <- 0;
  Array.fill t.sbf_gen 0 (Array.length t.sbf_gen) (-1);
  t.generation <- 0;
  t.reg_reads <- 0;
  t.reg_writes <- 0

let create () =
  let t =
    {
      q = Pqueue.create ~name:"Q" ();
      qu = Pqueue.create ~name:"QU" ();
      rq = Pqueue.create ~name:"RQ" ();
      subflows = [||];
      registers = Array.make Progmp_lang.Props.num_registers 0;
      actions = [||];
      num_actions = 0;
      popped_src = [||];
      popped_pkt = [||];
      num_popped = 0;
      (* start tiny and grow on demand: a fleet of a million two-subflow
         connections should not pay 64-entry index arrays each *)
      sbf_slot = Array.make 4 0;
      sbf_gen = Array.make 4 (-1);
      generation = 0;
      reg_reads = 0;
      reg_writes = 0;
    }
  in
  reset t;
  t

let queue t : Progmp_lang.Ast.queue_id -> Pqueue.t = function
  | Send_queue -> t.q
  | Unacked_queue -> t.qu
  | Reinject_queue -> t.rq

let subflow_by_id t id =
  if id >= 0 && id < max_indexed_sbf then
    (* an id beyond the index arrays was never indexed, hence absent *)
    if id < Array.length t.sbf_gen && t.sbf_gen.(id) = t.generation then
      Some t.subflows.(t.sbf_slot.(id))
    else None
  else begin
    (* out-of-range ids: linear fallback *)
    let n = Array.length t.subflows in
    let rec find i =
      if i >= n then None
      else if t.subflows.(i).Subflow_view.id = id then Some t.subflows.(i)
      else find (i + 1)
    in
    find 0
  end

let get_register t i =
  if i < 0 || i >= Array.length t.registers then 0
  else begin
    t.reg_reads <- t.reg_reads lor (1 lsl i);
    t.registers.(i)
  end

let set_register t i v =
  if i >= 0 && i < Array.length t.registers then begin
    t.reg_writes <- t.reg_writes lor (1 lsl i);
    t.registers.(i) <- v
  end

(* Append to a growable buffer; the pushed element doubles as the fill
   value so no dummy element is ever needed. *)
let grow arr len fill =
  let cap = Array.length arr in
  if len < cap then arr
  else begin
    let bigger = Array.make (max 8 (2 * cap)) fill in
    Array.blit arr 0 bigger 0 cap;
    bigger
  end

(** Record a [POP]: the packet has been removed from [src]; unless a
    subsequent PUSH or DROP handles it, {!finish_execution} returns it to
    the front of its source queue so that no packet is ever lost
    (paper §3.3). *)
let record_pop t src pkt =
  t.popped_src <- grow t.popped_src t.num_popped src;
  t.popped_pkt <- grow t.popped_pkt t.num_popped pkt;
  t.popped_src.(t.num_popped) <- src;
  t.popped_pkt.(t.num_popped) <- pkt;
  t.num_popped <- t.num_popped + 1

let emit_action t a =
  t.actions <- grow t.actions t.num_actions a;
  t.actions.(t.num_actions) <- a;
  t.num_actions <- t.num_actions + 1

let emit_push t ~sbf_id pkt = emit_action t (Action.Push { sbf_id; pkt })

let emit_drop t pkt = emit_action t (Action.Drop pkt)

let action_count t = t.num_actions

(* Subflow sets are bitmasks over snapshot positions in a 63-bit int
   (the interpreter, the AOT and the bytecode alike): 62 positions, the
   bound subflow ids already obey. *)
let max_subflows = 62

let begin_execution t ~subflows =
  if Array.length subflows > max_subflows then
    invalid_arg
      (Printf.sprintf "Env.begin_execution: %d subflows, at most %d"
         (Array.length subflows) max_subflows);
  t.subflows <- subflows;
  t.num_actions <- 0;
  t.num_popped <- 0;
  t.reg_reads <- 0;
  t.reg_writes <- 0;
  t.generation <- t.generation + 1;
  (* refresh the id index; reverse order so that on (malformed)
     duplicate ids the first occurrence wins, like a front-to-back
     scan would *)
  for i = Array.length subflows - 1 downto 0 do
    let id = subflows.(i).Subflow_view.id in
    if id >= 0 && id < max_indexed_sbf then begin
      if id >= Array.length t.sbf_gen then begin
        let cap = ref (Array.length t.sbf_gen) in
        while id >= !cap do
          cap := 2 * !cap
        done;
        let slot' = Array.make !cap 0 and gen' = Array.make !cap (-1) in
        Array.blit t.sbf_slot 0 slot' 0 (Array.length t.sbf_slot);
        Array.blit t.sbf_gen 0 gen' 0 (Array.length t.sbf_gen);
        t.sbf_slot <- slot';
        t.sbf_gen <- gen'
      end;
      t.sbf_slot.(id) <- i;
      t.sbf_gen.(id) <- t.generation
    end
  done

(* Some buffered action, at or after [i], hands on the packet with id
   [id]. *)
let rec handled t id i =
  i < t.num_actions
  && ((match t.actions.(i) with
      | Action.Push { pkt; _ } | Action.Drop pkt -> pkt.Packet.id = id)
     || handled t id (i + 1))

(* Return packets that were popped but neither pushed nor dropped to
   the front of their source queue, in their original order. An
   execution pops and acts a handful of times, so each pop is checked
   against the action buffer directly: O(popped x actions), and nothing
   is allocated. *)
let restore_orphans t =
  (* pops were recorded oldest-first; walking them newest-first and
     pushing each orphan to the front restores the original queue
     order *)
  for i = t.num_popped - 1 downto 0 do
    let p = t.popped_pkt.(i) in
    if not (handled t p.Packet.id 0) then Pqueue.push_front t.popped_src.(i) p
  done;
  t.num_popped <- 0

(** Finish one scheduler execution: returns the actions in program order
    after re-inserting packets that were popped but neither pushed nor
    dropped (in their original order, at the front of Q). *)
let finish_execution t =
  let actions = ref [] in
  for i = t.num_actions - 1 downto 0 do
    actions := t.actions.(i) :: !actions
  done;
  restore_orphans t;
  t.num_actions <- 0;
  !actions

(** Like {!finish_execution}, but hands each action to [apply] straight
    from the buffer, in program order, and returns their count: the
    compressed loop's allocation-free path. [apply] must not start
    another execution on [t] — it would overwrite the buffer. *)
let finish_execution_iter t apply =
  restore_orphans t;
  let n = t.num_actions in
  t.num_actions <- 0;
  for i = 0 to n - 1 do
    apply t.actions.(i)
  done;
  n
