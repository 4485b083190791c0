(** The augmented packet queue of the runtime environment.

    Implements the abstractions the paper builds on top of the kernel's
    [sk_write_queue] (§4.1): a FIFO that additionally supports [POP]
    {e in the middle} of the queue (needed when a filter selects a packet
    that is not at the head) and [TOP] without removal.

    Representation: a growable circular buffer with a head offset, so the
    common operations — push at the back, inspect/remove at or near the
    front — are O(1); removal in the middle shifts at most the shorter
    side. Unused cells hold {!Packet.dummy}, so a push stores the packet
    itself rather than a fresh [Some]. A [sorted] flag records whether
    seqs are non-decreasing from front to back; while it holds, the
    cumulative-ack cleanup {!remove_below} only trims the head, like the
    kernel's [tcp_clean_rtx_queue]. *)

type t = {
  mutable buf : Packet.t array;
  mutable head : int;  (** index of the first element *)
  mutable len : int;
  mutable sorted : bool;
      (** seqs are non-decreasing from front to back (conservative:
          [false] may also describe a sorted queue) *)
  name : string;
}

(* A fresh queue's capacity, and the largest one {!reset} keeps: a
   queue reset for reuse shrinks back so a recycled owner does not hold
   on to the high-water mark of every flow it ever carried. *)
let initial_capacity = 4
let retained_capacity = 64

let clear t =
  Array.fill t.buf 0 (Array.length t.buf) Packet.dummy;
  t.head <- 0;
  t.len <- 0;
  t.sorted <- true

let reset t =
  let cap = Array.length t.buf in
  if cap < initial_capacity || cap > retained_capacity then begin
    t.buf <- Array.make initial_capacity Packet.dummy;
    t.head <- 0;
    t.len <- 0;
    t.sorted <- true
  end
  else clear t

let create ?(name = "queue") () =
  let t = { buf = [||]; head = 0; len = 0; sorted = true; name } in
  reset t;
  t

let capacity t = Array.length t.buf

let name t = t.name

let length t = t.len

let is_empty t = t.len = 0

(* Capacity is always a power of two (4 at creation or reset, doubled by
   [grow]), so the wrap-around is a mask, not a division — [phys_index]
   sits under every per-decision queue access. *)
let mask t = Array.length t.buf - 1

let phys_index t i = (t.head + i) land mask t

let unsafe_get t i = Array.unsafe_get t.buf (phys_index t i)

(** [nth t i] is the i-th packet from the front, or [None] when out of
    range. O(1): the circular buffer makes this an offset computation,
    not a list walk — [H_q_nth] sits on the bytecode engines'
    per-decision hot path. *)
let nth t i = if i < 0 || i >= t.len then None else Some (unsafe_get t i)

(** [get t i] is the i-th packet without the option wrapper — the
    allocation-free variant for callers that have already checked
    [0 <= i < length t] (the threaded engine's [H_q_nth]). *)
let get t i =
  if i < 0 || i >= t.len then invalid_arg "Pqueue.get: index out of range"
  else unsafe_get t i

let grow t =
  let cap = Array.length t.buf in
  let buf' = Array.make (2 * cap) Packet.dummy in
  for i = 0 to t.len - 1 do
    buf'.(i) <- unsafe_get t i
  done;
  t.buf <- buf';
  t.head <- 0

let push_back t (p : Packet.t) =
  t.sorted <-
    t.len = 0
    || (t.sorted && (unsafe_get t (t.len - 1)).Packet.seq <= p.Packet.seq);
  if t.len = Array.length t.buf then grow t;
  t.buf.(phys_index t t.len) <- p;
  t.len <- t.len + 1

(** Re-insert at the front (used when a popped packet must be returned to
    the sending queue, e.g. because its target subflow disappeared). *)
let push_front t (p : Packet.t) =
  t.sorted <-
    t.len = 0 || (t.sorted && p.Packet.seq <= (unsafe_get t 0).Packet.seq);
  if t.len = Array.length t.buf then grow t;
  t.head <- (t.head - 1) land mask t;
  t.buf.(t.head) <- p;
  t.len <- t.len + 1

(** Remove and return the i-th packet, shifting the shorter side:
    O(min(i, len - i)) single-cell moves, so both ends are O(1) and the
    worst case (dead middle) is len/2. Removal keeps a sorted queue
    sorted. *)
let remove_at t i =
  if i < 0 || i >= t.len then None
  else begin
    let p = unsafe_get t i in
    if i < t.len - i - 1 then begin
      (* shift the front segment towards the back *)
      for k = i downto 1 do
        t.buf.(phys_index t k) <- unsafe_get t (k - 1)
      done;
      t.buf.(t.head) <- Packet.dummy;
      t.head <- (t.head + 1) land mask t
    end
    else begin
      for k = i to t.len - 2 do
        t.buf.(phys_index t k) <- unsafe_get t (k + 1)
      done;
      t.buf.(phys_index t (t.len - 1)) <- Packet.dummy
    end;
    t.len <- t.len - 1;
    Some p
  end

let pop_front t = remove_at t 0

(** [remove_packet t p] removes the packet with [p]'s id if present;
    returns whether it was found. *)
let remove_packet t (p : Packet.t) =
  let rec find i =
    if i >= t.len then None
    else if (unsafe_get t i).Packet.id = p.Packet.id then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> false
  | Some i ->
      ignore (remove_at t i);
      true

let mem t (p : Packet.t) =
  let rec find i =
    if i >= t.len then false
    else (unsafe_get t i).Packet.id = p.Packet.id || find (i + 1)
  in
  find 0

let iter t f =
  for i = 0 to t.len - 1 do
    f (unsafe_get t i)
  done

let fold t f acc =
  let acc = ref acc in
  iter t (fun p -> acc := f !acc p);
  !acc

(* Drop the first [k] packets: blank their cells and advance the head. *)
let drop_front t k =
  for i = 0 to k - 1 do
    t.buf.(phys_index t i) <- Packet.dummy
  done;
  t.head <- (t.head + k) land mask t;
  t.len <- t.len - k

(** Remove every packet with [seq < upto]; returns them in queue order
    (cumulative-ack cleanup: "acknowledged packets are automatically
    removed from all queues"). On a sorted queue they form a prefix and
    only that head is touched: O(removed). Otherwise one backward
    compacting pass slides the kept packets towards the back, conses
    the removed ones in queue order and recomputes [sorted]. Either way
    the only allocation is the returned list. *)
let remove_below t upto =
  if t.sorted then begin
    let k = ref 0 in
    while !k < t.len && (unsafe_get t !k).Packet.seq < upto do
      incr k
    done;
    let removed = ref [] in
    for i = !k - 1 downto 0 do
      removed := unsafe_get t i :: !removed
    done;
    drop_front t !k;
    !removed
  end
  else begin
    (* [w] is the next free cell from the back; kept packets are visited
       back to front, so [next_seq] is the seq of the kept packet that
       will follow the current one *)
    let removed = ref [] and w = ref (t.len - 1) in
    let sorted = ref true and next_seq = ref max_int in
    for i = t.len - 1 downto 0 do
      let p = unsafe_get t i in
      if p.Packet.seq < upto then removed := p :: !removed
      else begin
        if p.Packet.seq > !next_seq then sorted := false;
        next_seq := p.Packet.seq;
        if !w <> i then t.buf.(phys_index t !w) <- p;
        decr w
      end
    done;
    drop_front t (!w + 1);
    t.sorted <- !sorted;
    !removed
  end

let to_list t = List.rev (fold t (fun acc p -> p :: acc) [])

let pp ppf t =
  Fmt.pf ppf "%s[%a]" t.name Fmt.(list ~sep:(any "; ") Packet.pp) (to_list t)
