(** The augmented packet queue of the runtime environment (paper §4.1):
    a FIFO that additionally supports removal {e in the middle} (a
    filtered [POP]), inspection without removal ([TOP]), and
    re-insertion at the front (the no-packet-loss guarantee).

    Representation: a growable circular buffer padded with the
    {!Packet.dummy} sentinel, so a push stores the packet itself and
    allocates nothing; push/pop at the ends are O(1), middle removal
    shifts the shorter side. The queue also tracks whether its seqs are
    non-decreasing from front to back: pushes keep that flag by
    comparing with the neighbouring packet, removals preserve it, and
    an emptied queue starts sorted again.

    Decision-path cost audit (the operations the bytecode helpers hit on
    every scheduling decision): {!nth} is O(1) — an offset into the
    buffer, {e not} a list walk — and {!remove_at}[ t i] is
    O(min(i, length t - i)) element moves, so [pop_front] and
    back-removal are O(1) and the worst case (dead middle) is n/2 moves
    of one array cell each. {!remove_packet} and {!mem} scan by id and
    stay O(n); they run on the ACK path, not per decision. The
    cumulative-ack cleanup {!remove_below} is O(removed) on a sorted
    queue (a head trim) and one allocation-free O(n) compacting pass
    otherwise; either way it allocates only the returned list. *)

type t

val create : ?name:string -> unit -> t

val name : t -> string

val length : t -> int

val is_empty : t -> bool

val nth : t -> int -> Packet.t option
(** [nth t i] is the i-th packet from the front, or [None] out of
    range. *)

val unsafe_get : t -> int -> Packet.t
(** [get] without the bounds check: the caller must have established
    [0 <= i < length t] itself (the threaded engine's [H_q_nth] does
    exactly that test to decide between packet and NULL). *)

val get : t -> int -> Packet.t
(** [nth] without the option allocation, for callers that checked the
    range against {!length} themselves (the decision hot path).
    @raise Invalid_argument when [i] is out of range. *)

val push_back : t -> Packet.t -> unit

val push_front : t -> Packet.t -> unit
(** Re-insert at the front (e.g. a popped packet whose target subflow
    disappeared). *)

val remove_at : t -> int -> Packet.t option
(** Remove and return the i-th packet. *)

val pop_front : t -> Packet.t option

val remove_packet : t -> Packet.t -> bool
(** Remove the packet with the same id, if present. *)

val mem : t -> Packet.t -> bool
(** Membership by packet id. *)

val iter : t -> (Packet.t -> unit) -> unit

val fold : t -> ('a -> Packet.t -> 'a) -> 'a -> 'a

val remove_below : t -> int -> Packet.t list
(** [remove_below t upto] removes every packet with [seq < upto] and
    returns them in queue order (cumulative-ack cleanup). The result is
    the same whether or not the queue is sorted; only the cost
    differs. *)

val to_list : t -> Packet.t list

val clear : t -> unit
(** Empty the queue, keeping its capacity. *)

val reset : t -> unit
(** Empty the queue for reuse by a new owner: like {!clear}, but a
    buffer grown past {!retained_capacity} goes back to the initial
    capacity (4). {!create} is {!reset} on a new record. *)

val retained_capacity : int

val capacity : t -> int
(** Current buffer capacity (the bounded-retention tests read it). *)

val pp : Format.formatter -> t -> unit
