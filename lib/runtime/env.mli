(** The scheduling environment a program executes against: the three
    queues of the model (Q, QU, RQ), the per-execution subflow
    snapshots, the persistent register file, and the action buffer.
    Both execution backends operate on this same structure.

    Per-execution state (actions, popped packets, the subflow-id index)
    lives in reusable buffers owned by the environment: the decision
    hot path allocates nothing beyond the actions the caller asked for. *)

type t = {
  q : Pqueue.t;  (** sending queue: data from the application *)
  qu : Pqueue.t;  (** unacknowledged packets in flight *)
  rq : Pqueue.t;  (** reinjection queue: suspected-lost packets *)
  mutable subflows : Subflow_view.t array;
  registers : int array;  (** R1..R6, persistent across executions *)
  mutable actions : Action.t array;
      (** reusable action buffer, program order; only the first
          [num_actions] entries are live *)
  mutable num_actions : int;
  mutable popped_src : Pqueue.t array;
      (** source queues of popped packets, pop order *)
  mutable popped_pkt : Packet.t array;
      (** packets popped during the current execution, pop order; only
          the first [num_popped] entries are live *)
  mutable num_popped : int;
  mutable sbf_slot : int array;  (** subflow id -> snapshot position *)
  mutable sbf_gen : int array;  (** generation stamp validating [sbf_slot] *)
  mutable generation : int;
  mutable reg_reads : int;
      (** bitmask of registers read during the current execution (bit
          [i] is R(i+1)); reset by {!begin_execution} *)
  mutable reg_writes : int;
      (** bitmask of registers written during the current execution *)
}

val create : unit -> t

val reset : t -> unit
(** Return the environment to its freshly created state in place
    (empty queues, zero registers, no snapshot) for a recycled
    connection. Queues grown past {!Pqueue.retained_capacity} shrink
    back to their initial size. *)

val queue : t -> Progmp_lang.Ast.queue_id -> Pqueue.t

val subflow_by_id : t -> int -> Subflow_view.t option
(** Constant-time lookup in the current snapshot (linear only for ids
    beyond the indexed range, which the simulator never produces). *)

val get_register : t -> int -> int
(** Out-of-range registers read 0. *)

val set_register : t -> int -> int -> unit
(** Out-of-range writes are ignored. *)

val record_pop : t -> Pqueue.t -> Packet.t -> unit
(** Note a [POP]; unless a later PUSH/DROP handles the packet,
    {!finish_execution} restores it to the front of its source queue. *)

val emit_push : t -> sbf_id:int -> Packet.t -> unit

val emit_drop : t -> Packet.t -> unit

val action_count : t -> int
(** Actions buffered so far in the current execution. *)

val max_subflows : int
(** 62: the largest snapshot an execution accepts. Every engine encodes
    a subflow set as a bitmask over snapshot positions in one 63-bit
    [int], and subflow ids are likewise 0-based and < 62. *)

val begin_execution : t -> subflows:Subflow_view.t array -> unit
(** Start an execution against [subflows] (reset the action and pop
    buffers, refresh the id index).
    @raise Invalid_argument when the snapshot holds more than
    {!max_subflows} subflows. *)

val finish_execution : t -> Action.t list
(** Actions in program order, after restoring orphaned pops. Orphan
    detection checks each pop against the action buffer: O(popped x
    actions), a handful of each per execution, and allocation-free. *)

val finish_execution_iter : t -> (Action.t -> unit) -> int
(** {!finish_execution} without the list: restores orphaned pops, then
    passes each action to the callback in program order straight from
    the buffer and returns how many there were. The callback must not
    start another execution on the same environment. *)
