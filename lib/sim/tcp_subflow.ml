(** One MPTCP subflow: a complete simulated TCP connection.

    Sender side: NewReno-style congestion control (slow start, congestion
    avoidance, fast retransmit on three duplicate acks, RTO with
    exponential backoff), RFC-6298 RTT estimation, a send buffer fed by
    the MPTCP scheduler, and a TSQ (TCP small queue) approximation based
    on the link's serialization backlog.

    Receiver side: per-subflow cumulative acks with out-of-order
    buffering; segments are released to the meta socket according to the
    delivery mode (two-layer kernel behaviour vs. the paper's
    earliest-possible delivery, §4.2).

    Loss handling mirrors Linux MPTCP: a segment suspected lost is
    retransmitted {e on the same subflow} (TCP reliability per subflow)
    and its packet is reported upward so the meta socket can place it in
    the reinjection queue RQ for the scheduler.

    Memory discipline (fleet scale): the in-flight table is an
    index-addressed ring (subflow sequence numbers are dense in
    [snd_una, snd_nxt), so [seq land mask] is an exact slot), the send
    buffer is a packet ring, and in-flight entries are pooled records
    recycled through an {!entry_pool} — fleet-owned when hosted by
    {!Fleet}, private otherwise — so steady-state operation allocates
    no per-segment bookkeeping. *)

open Progmp_runtime

type delivery_mode =
  | Two_layer
      (** stock kernel: a segment reaches the meta socket only once it is
          in-order {e within its subflow} *)
  | Immediate
      (** the paper's receiver fix: every arriving segment is handed to
          the meta socket at once; ordering happens only at the data
          level *)

(** A pooled in-flight entry. [e_fire] is the segment's arrival event,
    allocated once per entry {e lifetime} (not per transmission, not
    even per use of the entry): it reads the mutable fields at arrival
    time. [e_pending] counts scheduled arrival events that have not
    fired yet — an entry can only return to the freelist once it drains,
    so a stale arrival (duplicate copy in the air when the segment was
    acked, or the owning connection retired) can never observe a
    recycled entry. [e_sbf = None] marks an orphan: the owning
    connection was scrapped, the arrival is swallowed. [e_inc] is the
    owner's incarnation at transmission: a copy of an incarnation since
    scrapped is stale and must not reach the owner's current state.
    [e_gen] counts recyclings (the property-test generation stamp). *)
type entry = {
  mutable e_sbf : t option;  (** owner; [None] = free or orphaned *)
  mutable e_seq : int;
  mutable e_pkt : Packet.t;
  mutable e_size : int;
  mutable e_sent_at : float;
  mutable e_retx : bool;
  mutable e_lost : bool;  (** marked lost by SACK-style hole detection *)
  mutable e_in_ring : bool;  (** currently in its owner's in-flight ring *)
  mutable e_pending : int;  (** scheduled arrival events not yet fired *)
  mutable e_inc : int;  (** owner's incarnation when allocated *)
  mutable e_gen : int;  (** recycle count (pool generation stamp) *)
  e_pool : entry_pool;
  mutable e_fire : unit -> unit;  (** arrival event, knotted once *)
}

(** Freelist of in-flight entries; shared across every subflow of a
    fleet shard so the entry population is bounded by peak in-flight
    segments, not total arrivals. *)
and entry_pool = {
  ep_free : entry Array_stack.t;
  mutable ep_created : int;
  mutable ep_outstanding : int;
  mutable ep_releases : int;
}

(** Pooled ack: the in-flight representation of one subflow+data ack.
    [a_fire] is allocated once per cell (tied back to the owning cell by
    a knot in [send_ack]) and reads the two mutable fields at arrival
    time; cells are recycled through the subflow's freelist the moment
    they fire or fail to send, so a steady ack clock reuses one cell
    instead of allocating a closure per ack. [a_inc] is the incarnation
    that sent the ack: a cell arriving after a {!scrap} fires inert. *)
and ack_cell = {
  mutable a_sbf : int;
  mutable a_data : int;
  mutable a_inc : int;
  mutable a_fire : unit -> unit;
}

(* The float state the congestion and RTT code updates per ack, in a
   float-only record so that every write stores in place: a float field
   of the mixed record [t] would box a fresh value on each write. [rto]
   stays a (boxed) field of [t]: it is only read to arm the RTO timer,
   which takes it boxed. *)
and floats = {
  mutable cwnd : float;  (** segments *)
  mutable ssthresh : float;
  mutable srtt : float;
  mutable rttvar : float;
  mutable rtt_avg : float;
  mutable rate_anchor_t : float;
  mutable rate_ewma : float;  (** bytes/second; 0 until the first sample *)
}

and t = {
  id : int;
  mss : int;
  mutable is_backup : bool;
  mutable forced_lossy : bool;
      (** externally injected lossiness (e.g. L2 signal quality reported
          by a connectivity manager): ORed into the LOSSY property *)
  clock : Eventq.t;
  data_link : Link.t;
  ack_link : Link.t;
  delivery_mode : delivery_mode;
  pool : entry_pool;
  mutable incarnation : int;
      (** bumped by {!scrap}: deferred work (segment arrivals, acks,
          handshakes) of an earlier incarnation finds it changed and
          does nothing *)
  mutable self : t option;
      (** [Some] of this subflow, built once: the owner every in-flight
          entry records *)
  f : floats;
  (* --- sender state --- *)
  mutable established : bool;
  mutable snd_nxt : int;
  mutable snd_una : int;
  (* In-flight ring: live seqs are dense in [snd_una, snd_nxt), so the
     slot of [seq] is [seq land (capacity - 1)] exactly (capacity, a
     power of two, is kept >= the window span); empty slots hold the
     shared dummy entry. O(1) insert/lookup/remove with zero per-packet
     allocation, where the hash table paid bucket churn per segment. *)
  mutable infl : entry array;
  mutable infl_count : int;
  (* Send ring: packets assigned by the scheduler, oldest at [sq_head];
     empty slots hold {!Packet.dummy}. *)
  mutable sq : Packet.t array;
  mutable sq_head : int;
  mutable sq_len : int;
  mutable dupacks : int;
  mutable recover : int;  (** NewReno recovery point; -1 = not in recovery *)
  mutable rtt_samples : int;
  mutable rto : float;
  min_rto : float;
  mutable rto_timer : Eventq.timer;
  mutable lost_skbs : int;
  (* --- receiver-side subflow state --- *)
  mutable rcv_expected : int;
  rcv_ooo : (int, Packet.t) Hashtbl.t;
  ack_free : ack_cell Array_stack.t;  (** recycled ack cells *)
  hs_free : handshake Array_stack.t;  (** recycled handshake cells *)
  (* --- statistics --- *)
  mutable segs_sent : int;
  mutable segs_retx : int;
  mutable bytes_sent : int;
  mutable bytes_acked : int;
  (* Per-subflow TSQ ring: (serialization completion time, bytes) of
     this subflow's segments queued at the bottleneck, oldest at
     [tsq_head]. Completion times are pushed in nondecreasing order (the
     link's serialization horizon only advances), so expiry is a prefix
     and {!own_backlog_bytes} prunes from the head against a running
     byte total instead of rebuilding a list per call. *)
  mutable tsq_time : float array;
  mutable tsq_size : int array;
  mutable tsq_head : int;
  mutable tsq_len : int;
  mutable tsq_bytes : int;
  mutable tsq_timer : Eventq.timer;  (** see {!arm_tsq_wakeup} *)
  (* delivery-rate estimator backing the THROUGHPUT property (with
     [f.rate_anchor_t] and [f.rate_ewma]) *)
  mutable rate_anchor_bytes : int;
  (* Ring of recent delivery-rate samples for the windowed-max filter:
     [rate_len] (time, bytes/s) pairs ending at [rate_newest]; times
     increase towards the newest. Float arrays store their elements
     unboxed, so recording a sample allocates nothing. The arrays are
     empty until the flow's first sample and again after a path restart: most
     fleet flows end before a sample is due, and a slot should not hold
     a ring for them. *)
  mutable rate_time : float array;
  mutable rate_value : float array;
  mutable rate_newest : int;
  mutable rate_len : int;
  (* --- callbacks wired by the meta socket --- *)
  mutable on_meta_deliver : Packet.t -> unit;
      (** a segment's payload reached the meta socket (per delivery mode) *)
  mutable on_suspected_loss : Packet.t -> unit;  (** -> RQ *)
  mutable on_failed : Packet.t list -> unit;
      (** the subflow died with these packets unacknowledged: they are
          no longer in flight anywhere on this path and must be
          re-queued as fresh data (RQ is only for transient suspected
          losses, which RQ-ignoring schedulers may legitimately leave to
          subflow-level retransmission) *)
  mutable on_sender_event : unit -> unit;  (** re-trigger the scheduler *)
  mutable is_data_acked : Packet.t -> bool;
  mutable data_ack_value : unit -> int;  (** receiver's cumulative data ack *)
  mutable on_data_ack : int -> unit;
  mutable rwnd_bytes : unit -> int;  (** advertised meta receive window *)
  mutable rwnd_exempt : Packet.t -> bool;
      (** next-in-order data may be sent even against a closed window: it
          is consumed by the application immediately and never occupies
          the out-of-order buffer, which avoids the zero-window deadlock
          where only the blocked packet could reopen the window *)
  mutable cc_on_ack : t -> int -> unit;  (** pluggable window increase *)
}

(* A pending handshake: [establish] posts [h_start] at the handshake's
   start, which posts [h_done] one RTT later; [h_done] completes it if
   the subflow is still in incarnation [h_inc]. Both closures are built
   once per cell and cells are recycled, so a recycled fleet slot's
   handshakes allocate no closures. *)
and handshake = {
  mutable h_inc : int;
  mutable h_start : unit -> unit;
  mutable h_done : unit -> unit;
}

let initial_cwnd = 10 (* segments, as in modern Linux *)

(* ---------- entry pool ---------- *)

(* The shared padding entry for empty ring slots and free stacks. Its
   pool is a private sink no live subflow draws from; its fire is never
   scheduled. *)
let rec dummy_entry =
  {
    e_sbf = None;
    e_seq = min_int;
    e_pkt = Packet.dummy;
    e_size = 0;
    e_sent_at = 0.0;
    e_retx = false;
    e_lost = false;
    e_in_ring = false;
    e_pending = 0;
    e_inc = 0;
    e_gen = 0;
    e_pool = dummy_pool;
    e_fire = ignore;
  }

and dummy_pool =
  {
    ep_free = { Array_stack.cells = [||]; len = 0; pad = dummy_entry };
    ep_created = 0;
    ep_outstanding = 0;
    ep_releases = 0;
  }

let entry_pool () =
  {
    ep_free = Array_stack.create ~pad:dummy_entry;
    ep_created = 0;
    ep_outstanding = 0;
    ep_releases = 0;
  }

let entry_pool_created p = p.ep_created
let entry_pool_outstanding p = p.ep_outstanding
let entry_pool_releases p = p.ep_releases

let entry_pool_free p = Array_stack.to_list p.ep_free

(** Free entries must reference nothing: [true] when every freelist
    entry holds the dummy packet and no owner (the arena-recycling
    property the tests assert). *)
let entry_pool_clean p =
  List.for_all
    (fun e -> e.e_sbf = None && e.e_pkt == Packet.dummy && e.e_pending = 0)
    (entry_pool_free p)

let dummy_ack = { a_sbf = 0; a_data = 0; a_inc = 0; a_fire = ignore }

let dummy_handshake = { h_inc = 0; h_start = ignore; h_done = ignore }

let entry_release e =
  let p = e.e_pool in
  e.e_sbf <- None;
  e.e_seq <- min_int;
  e.e_pkt <- Packet.dummy;
  e.e_in_ring <- false;
  e.e_gen <- e.e_gen + 1;
  p.ep_outstanding <- p.ep_outstanding - 1;
  p.ep_releases <- p.ep_releases + 1;
  Array_stack.push p.ep_free e

(* ---------- in-flight ring ---------- *)

(* The entry of [seq], or [dummy_entry] (whose seq no live segment
   has) when it is not in flight: a sentinel, not an option, so lookups
   allocate nothing. *)
let infl_find t seq =
  let e = t.infl.(seq land (Array.length t.infl - 1)) in
  if e.e_seq = seq then e else dummy_entry

let infl_grow t =
  let old = t.infl in
  let cap' = 2 * Array.length old in
  let bigger = Array.make cap' dummy_entry in
  Array.iter
    (fun e -> if e != dummy_entry then bigger.(e.e_seq land (cap' - 1)) <- e)
    old;
  t.infl <- bigger

(* Insert the entry for [seq]; the caller guarantees seq is fresh
   (= the just-advanced snd_nxt - 1). Grows while the window span could
   make two live seqs collide in one slot. *)
let infl_add t seq e =
  while t.snd_nxt - t.snd_una > Array.length t.infl do
    infl_grow t
  done;
  t.infl.(seq land (Array.length t.infl - 1)) <- e;
  e.e_in_ring <- true;
  t.infl_count <- t.infl_count + 1

let infl_take t seq =
  let i = seq land (Array.length t.infl - 1) in
  let e = t.infl.(i) in
  if e.e_seq = seq then begin
    t.infl.(i) <- dummy_entry;
    e.e_in_ring <- false;
    t.infl_count <- t.infl_count - 1;
    e
  end
  else dummy_entry

let in_flight_count t = t.infl_count

(* ---------- send ring ---------- *)

let sq_push t pkt =
  let cap = Array.length t.sq in
  if t.sq_len = cap then begin
    let bigger = Array.make (2 * cap) Packet.dummy in
    for i = 0 to t.sq_len - 1 do
      bigger.(i) <- t.sq.((t.sq_head + i) land (cap - 1))
    done;
    t.sq <- bigger;
    t.sq_head <- 0
  end;
  t.sq.((t.sq_head + t.sq_len) land (Array.length t.sq - 1)) <- pkt;
  t.sq_len <- t.sq_len + 1

let sq_peek t = t.sq.(t.sq_head) (* caller checks sq_len > 0 *)

let sq_pop t =
  let p = t.sq.(t.sq_head) in
  t.sq.(t.sq_head) <- Packet.dummy;
  t.sq_head <- (t.sq_head + 1) land (Array.length t.sq - 1);
  t.sq_len <- t.sq_len - 1;
  p

let queued_count t = t.sq_len

(* Reno/NewReno increase: slow start below ssthresh, then one segment per
   window. *)
let reno_on_ack t acked =
  let f = t.f in
  if f.cwnd < f.ssthresh then f.cwnd <- f.cwnd +. float_of_int acked
  else
    f.cwnd <-
      f.cwnd +. (float_of_int acked /. if f.cwnd > 1.0 then f.cwnd else 1.0)

let in_recovery t = t.recover >= 0

let lossy t = in_recovery t || t.forced_lossy

(* TSQ approximation: throttled when more than two segments' worth of
   the subflow's OWN bytes sit unserialized at the bottleneck. Own-bytes
   accounting matters on shared links: another flow's queue must not
   throttle this one (TSQ is per-socket in the kernel). *)
let own_backlog_bytes t =
  let now = Eventq.now t.clock in
  while t.tsq_len > 0 && t.tsq_time.(t.tsq_head) <= now do
    t.tsq_bytes <- t.tsq_bytes - t.tsq_size.(t.tsq_head);
    t.tsq_head <- (t.tsq_head + 1) mod Array.length t.tsq_time;
    t.tsq_len <- t.tsq_len - 1
  done;
  t.tsq_bytes

(* Record [size] bytes of this subflow leaving the bottleneck at the data
   link's current serialization horizon (read here rather than passed:
   a float argument would be boxed per segment). *)
let tsq_push t ~size =
  (* a full ring first drops what already left the bottleneck, so it
     stays bounded when no scheduler reads TSQ_THROTTLED (whose
     snapshot would have pruned it) *)
  if t.tsq_len = Array.length t.tsq_time then ignore (own_backlog_bytes t);
  let cap = Array.length t.tsq_time in
  if t.tsq_len = cap then begin
    let time' = Array.make (2 * cap) 0.0 and size' = Array.make (2 * cap) 0 in
    for i = 0 to t.tsq_len - 1 do
      time'.(i) <- t.tsq_time.((t.tsq_head + i) mod cap);
      size'.(i) <- t.tsq_size.((t.tsq_head + i) mod cap)
    done;
    t.tsq_time <- time';
    t.tsq_size <- size';
    t.tsq_head <- 0
  end;
  let tail = (t.tsq_head + t.tsq_len) mod Array.length t.tsq_time in
  t.tsq_time.(tail) <- t.data_link.Link.f.Link.busy_until;
  t.tsq_size.(tail) <- size;
  t.tsq_len <- t.tsq_len + 1;
  t.tsq_bytes <- t.tsq_bytes + size

let tsq_throttled t = own_backlog_bytes t > 2 * t.mss

(* Linux reruns the transmit path from the TSQ completion handler; an
   idle throttled subflow gets no ack that would, so it waits on a timer
   at the completion of its oldest queued segment instead. *)
let arm_tsq_wakeup t =
  if
    t.established && t.infl_count = 0
    && (not (Eventq.timer_armed t.tsq_timer))
    && tsq_throttled t
  then Eventq.timer_arm t.tsq_timer ~at:t.tsq_time.(t.tsq_head)

let rtt_us t =
  if t.rtt_samples = 0 then int_of_float (2.0 *. Link.delay t.data_link *. 1e6)
  else int_of_float (t.f.srtt *. 1e6)

(** Length of the achievable-rate filter window, seconds. *)
let rate_window = 2.0

(** Capacity of the rate-sample ring: samples are at least 0.2 s apart
    and a sample older than {!rate_window} (2 s) is dropped before the
    next one is recorded, so at most 11 are ever live. *)
let rate_capacity = 11

(* THROUGHPUT: the subflow's achievable rate, estimated as the maximum
   delivery-rate sample of the last {!rate_window} seconds (a BBR-style
   max filter). The max filter matters: the instantaneous rate is
   self-fulfilling for capacity-gated schedulers (spilling load away
   from a subflow lowers its measured rate, which would justify more
   spilling), while a pure cwnd/RTT bound badly overestimates
   application-limited subflows. Before any sample exists, the cwnd/RTT
   bound is used. *)
let throughput_estimate t =
  let now = Eventq.now t.clock in
  (* newest first, so the scan can stop at the first stale sample; this
     sits on the per-snapshot decision path and must not allocate:
     local float refs stay unboxed *)
  let best = ref 0.0 and i = ref t.rate_newest and n = ref 0 in
  while !n < t.rate_len && now -. t.rate_time.(!i) <= rate_window do
    best := Float.max !best t.rate_value.(!i);
    i := (if !i = 0 then rate_capacity - 1 else !i - 1);
    incr n
  done;
  if !n > 0 then int_of_float !best
  else
    let rtt =
      if t.rtt_samples = 0 then 2.0 *. Link.delay t.data_link else t.f.srtt
    in
    if rtt <= 0.0 then 0
    else int_of_float (t.f.cwnd *. float_of_int t.mss /. rtt)

let update_rate_estimate t =
  let now = Eventq.now t.clock in
  let f = t.f in
  if f.rate_anchor_t = 0.0 then begin
    f.rate_anchor_t <- now;
    t.rate_anchor_bytes <- t.bytes_acked
  end
  else begin
    let dt = now -. f.rate_anchor_t in
    if dt >= 0.2 then begin
      let sample = float_of_int (t.bytes_acked - t.rate_anchor_bytes) /. dt in
      f.rate_ewma <-
        (if f.rate_ewma = 0.0 then sample
         else (0.7 *. f.rate_ewma) +. (0.3 *. sample));
      if Array.length t.rate_time = 0 then begin
        t.rate_time <- Array.make rate_capacity 0.0;
        t.rate_value <- Array.make rate_capacity 0.0
      end;
      (* samples that left the window are the oldest ones *)
      let cap = rate_capacity in
      while
        t.rate_len > 0
        && now -. t.rate_time.((t.rate_newest - t.rate_len + 1 + cap) mod cap)
           > rate_window
      do
        t.rate_len <- t.rate_len - 1
      done;
      let i = (t.rate_newest + 1) mod cap in
      t.rate_time.(i) <- now;
      t.rate_value.(i) <- sample;
      t.rate_newest <- i;
      if t.rate_len < cap then t.rate_len <- t.rate_len + 1;
      f.rate_anchor_t <- now;
      t.rate_anchor_bytes <- t.bytes_acked
    end
  end

module Props = Progmp_lang.Props

(* read-set bits of the snapshot fields, looked up once *)
let rd_rtt = Props.read_bit Props.Rtt

let rd_rtt_avg = Props.read_bit Props.Rtt_avg

let rd_rtt_var = Props.read_bit Props.Rtt_var

let rd_cwnd = Props.read_bit Props.Cwnd

let rd_ssthresh = Props.read_bit Props.Ssthresh

let rd_in_flight = Props.read_bit Props.Skbs_in_flight

let rd_queued = Props.read_bit Props.Queued

let rd_lost = Props.read_bit Props.Lost_skbs

let rd_backup = Props.read_bit Props.Is_backup

let rd_tsq = Props.read_bit Props.Tsq_throttled

let rd_lossy = Props.read_bit Props.Lossy

let rd_rto = Props.read_bit Props.Rto

let rd_throughput = Props.read_bit Props.Throughput

let rd_mss = Props.read_bit Props.Mss

(** Refill [v] in place with the snapshot the scheduler sees — the
    per-decision path; the meta socket reuses one view per subflow
    across executions instead of allocating a record per snapshot. Only
    the fields in [reads] ({!Progmp_lang.Props.read_set}) are computed,
    and [id] always; the others keep what an earlier fill left there,
    which a program with that read set never reads. *)
let view_into ~reads t (v : Subflow_view.t) =
  v.Subflow_view.id <- t.id;
  if reads land rd_rtt <> 0 then v.rtt_us <- rtt_us t;
  if reads land rd_rtt_avg <> 0 then
    v.rtt_avg_us <-
      (if t.rtt_samples = 0 then rtt_us t
       else int_of_float (t.f.rtt_avg *. 1e6));
  if reads land rd_rtt_var <> 0 then
    v.rtt_var_us <- int_of_float (t.f.rttvar *. 1e6);
  if reads land rd_cwnd <> 0 then v.cwnd <- int_of_float t.f.cwnd;
  if reads land rd_ssthresh <> 0 then
    v.ssthresh <-
      (if t.f.ssthresh > 1e8 then max_int / 2 else int_of_float t.f.ssthresh);
  if reads land rd_in_flight <> 0 then v.skbs_in_flight <- in_flight_count t;
  if reads land rd_queued <> 0 then v.queued <- t.sq_len;
  if reads land rd_lost <> 0 then v.lost_skbs <- t.lost_skbs;
  if reads land rd_backup <> 0 then v.is_backup <- t.is_backup;
  if reads land rd_tsq <> 0 then v.tsq_throttled <- tsq_throttled t;
  if reads land rd_lossy <> 0 then v.lossy <- lossy t;
  if reads land rd_rto <> 0 then v.rto_us <- int_of_float (t.rto *. 1e6);
  if reads land rd_throughput <> 0 then
    v.throughput_bps <- throughput_estimate t;
  if reads land rd_mss <> 0 then v.mss <- t.mss;
  if reads land Props.receive_window_bit <> 0 then
    v.receive_window_bytes <-
      (let w = t.rwnd_bytes () in
       if w > 1 lsl 30 then 1 lsl 30 else w)

(** Build a fresh snapshot of every field (cold paths: invariant
    checkers, tests). *)
let view t : Subflow_view.t =
  let v = Subflow_view.fresh () in
  view_into ~reads:Props.all_reads t v;
  v

(* ---------- RTT estimation (RFC 6298) ---------- *)

(* Inlined so the sample reaches it unboxed from the ack loop. *)
let[@inline] sample_rtt t r =
  let f = t.f in
  if t.rtt_samples = 0 then begin
    f.srtt <- r;
    f.rttvar <- r /. 2.0;
    f.rtt_avg <- r
  end
  else begin
    f.rttvar <- (0.75 *. f.rttvar) +. (0.25 *. Float.abs (f.srtt -. r));
    f.srtt <- (0.875 *. f.srtt) +. (0.125 *. r);
    f.rtt_avg <- (0.9 *. f.rtt_avg) +. (0.1 *. r)
  end;
  t.rtt_samples <- t.rtt_samples + 1;
  let rto = f.srtt +. (4.0 *. f.rttvar) in
  t.rto <- (if rto > t.min_rto then rto else t.min_rto)

(* ---------- RTO timer ---------- *)

(* The timer's action closure and event cell are allocated once, in
   [create]; an arm consumes exactly one event sequence number.
   Cancellation is physical, so re-arming the RTO on the transmit hot
   path writes the new deadline into the cell in place — no
   allocation, no dead node left behind in the wheel bucket or heap. *)

let cancel_rto t = Eventq.timer_cancel t.rto_timer

let arm_rto t =
  if t.infl_count > 0 then Eventq.timer_arm_in t.rto_timer ~delay:t.rto
  else Eventq.timer_cancel t.rto_timer

(* ---------- transmission ---------- *)

let rec transmit_entry t (entry : entry) =
  entry.e_sent_at <- Eventq.now t.clock;
  t.segs_sent <- t.segs_sent + 1;
  t.bytes_sent <- t.bytes_sent + entry.e_size;
  if entry.e_retx then t.segs_retx <- t.segs_retx + 1;
  (match
     Link.transmit t.data_link ~size:(entry.e_size + 60) entry.e_fire
   with
  | Link.Delivered ->
      entry.e_pending <- entry.e_pending + 1;
      tsq_push t ~size:(entry.e_size + 60)
  | Link.Lost_random ->
      (* the segment occupies the bottleneck until serialized, even when
         it will be lost on the wire *)
      tsq_push t ~size:(entry.e_size + 60)
  | Link.Dropped_tail | Link.Dropped_red | Link.Lost_down -> ());
  if not (Eventq.timer_armed t.rto_timer) then arm_rto t

(** Move packets from the send buffer onto the wire while the congestion
    window and the peer's receive window allow. *)
and try_transmit t =
  if t.established then begin
    let continue = ref true in
    while
      !continue && t.sq_len > 0 && in_flight_count t < int_of_float t.f.cwnd
    do
      let pkt = sq_peek t in
      if t.is_data_acked pkt then
        (* acked at the data level while waiting: never send it
           (paper §5.1: removed from QU before being sent) *)
        ignore (sq_pop t)
      else if
        (in_flight_count t + 1) * t.mss > t.rwnd_bytes ()
        && not (t.rwnd_exempt pkt)
      then continue := false (* receive-window blocked *)
      else begin
        ignore (sq_pop t);
        let seq = t.snd_nxt in
        t.snd_nxt <- seq + 1;
        let entry = entry_alloc t ~seq ~pkt in
        infl_add t seq entry;
        transmit_entry t entry
      end
    done
  end

and retransmit_head t =
  let entry = infl_find t t.snd_una in
  if entry != dummy_entry then begin
    entry.e_retx <- true;
    transmit_entry t entry
  end

(* ---------- loss events ---------- *)

(* SACK-style loss marking: the receiver's out-of-order set tells the
   sender exactly which in-flight segments are holes; every hole is
   reported upward once, so the meta socket can reinject all of them
   without waiting for NewReno's one-hole-per-RTT discovery. *)
and mark_sack_holes t =
  if t.recover >= 0 then
    for seq = t.snd_una to t.recover do
      let entry = infl_find t seq in
      if
        entry != dummy_entry && (not entry.e_lost)
        && not (Hashtbl.mem t.rcv_ooo seq)
      then begin
        entry.e_lost <- true;
        t.on_suspected_loss entry.e_pkt
      end
    done

and enter_recovery t ~cause =
  Sim_log.debug (fun m ->
      m "sbf#%d enters recovery (%s): cwnd %.1f, %d in flight" t.id
        (match cause with `Dupacks -> "3 dupacks" | `Rto -> "RTO")
        t.f.cwnd (in_flight_count t));
  let f = t.f in
  let half = float_of_int (in_flight_count t) /. 2.0 in
  f.ssthresh <- (if half > 2.0 then half else 2.0);
  (match cause with
  | `Dupacks -> f.cwnd <- f.ssthresh
  | `Rto ->
      f.cwnd <- 1.0;
      t.rto <- Float.min 60.0 (t.rto *. 2.0));
  t.recover <- t.snd_nxt - 1;
  t.lost_skbs <- t.lost_skbs + 1;
  let entry = infl_find t t.snd_una in
  if entry != dummy_entry then begin
    retransmit_head t;
    t.on_suspected_loss entry.e_pkt
  end;
  mark_sack_holes t;
  arm_rto t

and on_rto t =
  (* the timer machinery has already disarmed itself *)
  if t.infl_count > 0 then begin
    t.dupacks <- 0;
    enter_recovery t ~cause:`Rto;
    t.on_sender_event ()
  end

(* ---------- receiver side ---------- *)

and on_segment_arrival t seq pkt =
  if seq = t.rcv_expected then begin
    t.rcv_expected <- seq + 1;
    if t.delivery_mode = Two_layer then t.on_meta_deliver pkt;
    if Hashtbl.length t.rcv_ooo > 0 then drain_ooo t;
    if t.delivery_mode = Immediate then t.on_meta_deliver pkt
  end
  else if seq > t.rcv_expected then begin
    if not (Hashtbl.mem t.rcv_ooo seq) then Hashtbl.replace t.rcv_ooo seq pkt;
    if t.delivery_mode = Immediate then t.on_meta_deliver pkt
  end;
  (* duplicate segments (seq < expected) still trigger an ack *)
  send_ack t ~inc:t.incarnation

(* Release in-order segments the out-of-order buffer holds after
   [rcv_expected]. A top-level loop, not a local closure: it runs on
   every in-order arrival. *)
and drain_ooo t =
  match Hashtbl.find_opt t.rcv_ooo t.rcv_expected with
  | Some p ->
      Hashtbl.remove t.rcv_ooo t.rcv_expected;
      t.rcv_expected <- t.rcv_expected + 1;
      if t.delivery_mode = Two_layer then t.on_meta_deliver p;
      drain_ooo t
  | None -> ()

and ack_recycle t c =
  Array_stack.push t.ack_free c

(* [inc] is the incarnation the ack belongs to; only the current one's
   acks reach {!on_ack} when they arrive. *)
and send_ack t ~inc =
  let cell =
    let c = Array_stack.pop t.ack_free in
    if c != dummy_ack then c
    else begin
      let c = { a_sbf = 0; a_data = 0; a_inc = 0; a_fire = ignore } in
      c.a_fire <-
        (fun () ->
          (* copy to locals before recycling: a recursive send during
             [on_ack] may grab this very cell *)
          let sbf_ack = c.a_sbf and data_ack = c.a_data in
          let current = c.a_inc = t.incarnation in
          ack_recycle t c;
          if current && Link.is_up t.ack_link then on_ack t ~sbf_ack ~data_ack);
      c
    end
  in
  cell.a_sbf <- t.rcv_expected;
  cell.a_data <- t.data_ack_value ();
  cell.a_inc <- inc;
  if not (Link.control_send t.ack_link cell.a_fire) then
    (* destroyed at send (link down): recycle immediately *)
    ack_recycle t cell

(* ---------- sender-side ack processing ---------- *)

and on_ack t ~sbf_ack ~data_ack =
  t.on_data_ack data_ack;
  if sbf_ack > t.snd_una then begin
    let inflight_before = in_flight_count t in
    let acked = ref 0 in
    let best_sample = ref infinity in
    for seq = t.snd_una to sbf_ack - 1 do
      let entry = infl_take t seq in
      if entry != dummy_entry then begin
        incr acked;
        t.bytes_acked <- t.bytes_acked + entry.e_size;
        (* Karn's rule: only sample RTT from unretransmitted segments *)
        if not entry.e_retx then begin
          let r = Eventq.now t.clock -. entry.e_sent_at in
          if r < !best_sample then best_sample := r
        end;
        (* a duplicate copy still in the air keeps the entry alive:
           its arrival fires the normal duplicate path and the entry
           returns to the pool once drained (see [entry_fire]) *)
        if entry.e_pending = 0 then entry_release entry
      end
    done;
    (* A cumulative ack may cover segments that arrived long ago and were
       blocked behind a gap; the freshest (smallest) sample is the one
       that reflects the path RTT, as a timestamp option would. *)
    if !best_sample < infinity then sample_rtt t !best_sample;
    update_rate_estimate t;
    t.snd_una <- sbf_ack;
    t.dupacks <- 0;
    if in_recovery t then begin
      if t.snd_una > t.recover then begin
        (* full recovery *)
        Sim_log.debug (fun m ->
            m "sbf#%d leaves recovery: cwnd %.1f -> %.1f" t.id t.f.cwnd
              t.f.ssthresh);
        t.recover <- -1;
        t.f.cwnd <- t.f.ssthresh
      end
      else begin
        (* partial ack: retransmit the next hole and refresh the
           SACK-style loss marks *)
        retransmit_head t;
        mark_sack_holes t
      end
    end
    else if inflight_before >= int_of_float t.f.cwnd then
      (* congestion-window validation (RFC 2861): only grow the window
         when the flow was actually using it *)
      t.cc_on_ack t !acked;
    if t.infl_count = 0 then cancel_rto t else arm_rto t;
    try_transmit t;
    t.on_sender_event ()
  end
  else if t.infl_count > 0 then begin
    t.dupacks <- t.dupacks + 1;
    if t.dupacks = 3 && not (in_recovery t) then begin
      enter_recovery t ~cause:`Dupacks;
      t.on_sender_event ()
    end
  end

(* ---------- entry pool (event-facing half) ---------- *)

(* The arrival event of a pooled entry, knotted once per entry lifetime.
   Owned entries behave exactly as a per-entry closure did — including
   duplicate arrivals for entries already acked out of the ring. An
   orphaned entry (owner scrapped by fleet recycling) swallows the
   arrival. A duplicate of a scrapped incarnation, acked out of the ring
   before the scrap, is stale: its receiver would only have re-acked
   it, so it sends that ack — the shared ack link carries the same
   events whether or not the subflow was recycled since — stamped with
   the old incarnation, which makes it inert on arrival. Either way the
   entry returns to the freelist when the last pending event has fired
   and it is no longer in a ring. *)
and entry_fire e () =
  e.e_pending <- e.e_pending - 1;
  (match e.e_sbf with
  | Some t ->
      if Link.arrival t.data_link then
        if e.e_inc = t.incarnation then on_segment_arrival t e.e_seq e.e_pkt
        else send_ack t ~inc:e.e_inc
  | None -> ());
  if (not e.e_in_ring) && e.e_pending = 0 && e.e_sbf <> None then
    entry_release e
  else if e.e_sbf = None && e.e_pending = 0 && e != dummy_entry then
    (* orphan fully drained *)
    entry_release e

and entry_alloc t ~seq ~pkt =
  let pool = t.pool in
  let e =
    let e = Array_stack.pop pool.ep_free in
    if e != dummy_entry then e
    else begin
      pool.ep_created <- pool.ep_created + 1;
      let e =
        {
          e_sbf = None;
          e_seq = 0;
          e_pkt = Packet.dummy;
          e_size = 0;
          e_sent_at = 0.0;
          e_retx = false;
          e_lost = false;
          e_in_ring = false;
          e_pending = 0;
          e_inc = 0;
          e_gen = 0;
          e_pool = pool;
          e_fire = ignore;
        }
      in
      e.e_fire <- entry_fire e;
      e
    end
  in
  pool.ep_outstanding <- pool.ep_outstanding + 1;
  e.e_sbf <- t.self;
  e.e_inc <- t.incarnation;
  e.e_seq <- seq;
  e.e_pkt <- pkt;
  e.e_size <- pkt.Packet.size;
  e.e_sent_at <- 0.0;
  e.e_retx <- false;
  e.e_lost <- false;
  e

(* ---------- construction and reset ---------- *)

(* Congestion, RTT, TSQ and rate-estimator state: how a fresh subflow
   starts, and what {!reestablish} restarts from. *)
let restart_path_state t =
  let f = t.f in
  f.cwnd <- float_of_int initial_cwnd;
  f.ssthresh <- 1e9;
  t.dupacks <- 0;
  t.recover <- -1;
  f.srtt <- 0.0;
  f.rttvar <- 0.0;
  f.rtt_avg <- 0.0;
  t.rtt_samples <- 0;
  t.rto <- 1.0;
  t.lost_skbs <- 0;
  t.tsq_head <- 0;
  t.tsq_len <- 0;
  t.tsq_bytes <- 0;
  f.rate_anchor_t <- 0.0;
  t.rate_anchor_bytes <- 0;
  f.rate_ewma <- 0.0;
  t.rate_time <- [||];
  t.rate_value <- [||];
  t.rate_newest <- 0;
  t.rate_len <- 0

(** Largest ring capacity {!reset} keeps; a larger ring goes back to
    its initial size, so a recycled subflow does not hold on to the
    high-water mark of every flow it ever carried. *)
let retained_capacity = 64

(* A ring for the next flow: the old one emptied when its capacity is
   within [initial, retained_capacity], otherwise a new one of the
   initial size. *)
let reset_ring arr ~initial fill =
  let cap = Array.length arr in
  if cap < initial || cap > retained_capacity then Array.make initial fill
  else begin
    Array.fill arr 0 cap fill;
    arr
  end

(** Return the subflow to the state {!create} gives it, in place: the
    connection-recycle path, valid once {!scrap} has released what the
    last flow held. Configuration (id, links, mss, delivery mode,
    backup flag), the meta-socket callbacks, the congestion hook, the
    ack-cell freelist and the incarnation survive. *)
let reset t =
  Eventq.timer_cancel t.rto_timer;
  Eventq.timer_cancel t.tsq_timer;
  t.established <- false;
  t.forced_lossy <- false;
  t.snd_nxt <- 0;
  t.snd_una <- 0;
  t.infl <- reset_ring t.infl ~initial:8 dummy_entry;
  t.infl_count <- 0;
  t.sq <- reset_ring t.sq ~initial:4 Packet.dummy;
  t.sq_head <- 0;
  t.sq_len <- 0;
  restart_path_state t;
  t.rcv_expected <- 0;
  Hashtbl.reset t.rcv_ooo;
  t.segs_sent <- 0;
  t.segs_retx <- 0;
  t.bytes_sent <- 0;
  t.bytes_acked <- 0;
  t.tsq_time <- reset_ring t.tsq_time ~initial:4 0.0;
  t.tsq_size <- reset_ring t.tsq_size ~initial:4 0

(* Defined after the sender/receiver event chain: the RTO timer's single
   action closure captures [t] and calls {!on_rto}. The record literal
   only allocates; {!reset} sets every piece of per-flow state. *)
let create ~id ~clock ~data_link ~ack_link ?(mss = 1448) ?(is_backup = false)
    ?(min_rto = 0.2) ?(delivery_mode = Immediate) ?entry_pool:pool () =
  let pool = match pool with Some p -> p | None -> entry_pool () in
  let t =
    {
      id;
      mss;
      is_backup;
      forced_lossy = false;
      clock;
      data_link;
      ack_link;
      delivery_mode;
      pool;
      incarnation = 0;
      self = None;
      f =
        {
          cwnd = 0.0;
          ssthresh = 0.0;
          srtt = 0.0;
          rttvar = 0.0;
          rtt_avg = 0.0;
          rate_anchor_t = 0.0;
          rate_ewma = 0.0;
        };
      established = false;
      snd_nxt = 0;
      snd_una = 0;
      infl = [||];
      infl_count = 0;
      sq = [||];
      sq_head = 0;
      sq_len = 0;
      dupacks = 0;
      recover = 0;
      rtt_samples = 0;
      rto = 0.0;
      min_rto;
      rto_timer = Eventq.timer clock ignore (* replaced below *);
      lost_skbs = 0;
      rcv_expected = 0;
      rcv_ooo = Hashtbl.create 4;
      ack_free = Array_stack.create ~pad:dummy_ack;
      hs_free = Array_stack.create ~pad:dummy_handshake;
      segs_sent = 0;
      segs_retx = 0;
      bytes_sent = 0;
      bytes_acked = 0;
      tsq_time = [||];
      tsq_size = [||];
      tsq_head = 0;
      tsq_len = 0;
      tsq_bytes = 0;
      tsq_timer = Eventq.timer clock ignore (* replaced below *);
      rate_anchor_bytes = 0;
      rate_time = [||];
      rate_value = [||];
      rate_newest = 0;
      rate_len = 0;
      on_meta_deliver = (fun _ -> ());
      on_suspected_loss = (fun _ -> ());
      on_failed = (fun _ -> ());
      on_sender_event = (fun () -> ());
      is_data_acked = (fun _ -> false);
      data_ack_value = (fun () -> 0);
      on_data_ack = (fun _ -> ());
      rwnd_bytes = (fun () -> max_int);
      rwnd_exempt = (fun _ -> false);
      cc_on_ack = reno_on_ack;
    }
  in
  t.self <- Some t;
  t.rto_timer <- Eventq.timer clock (fun () -> on_rto t);
  t.tsq_timer <- Eventq.timer clock (fun () -> t.on_sender_event ());
  reset t;
  t

(* ---------- scheduler-facing operations ---------- *)

(** Enqueue a packet assigned by the scheduler and try to put it on the
    wire immediately. *)
let send t pkt =
  sq_push t pkt;
  try_transmit t

(** Complete the (abstracted) handshake after one RTT and seed the RTT
    estimator with the handshake sample, then notify the sender. The
    handshake belongs to the current incarnation: if the subflow is
    scrapped meanwhile, its completion does nothing (the event still
    runs, so event counts do not depend on recycling). *)
let complete_handshake t =
  Sim_log.debug (fun m ->
      m "sbf#%d established (handshake rtt %.1f ms)" t.id
        (2.0 *. Link.delay t.data_link *. 1e3));
  t.established <- true;
  sample_rtt t (2.0 *. Link.delay t.data_link);
  try_transmit t;
  t.on_sender_event ()

let handshake_cell t =
  let h = Array_stack.pop t.hs_free in
  if h != dummy_handshake then h
  else begin
    let h = { h_inc = 0; h_start = ignore; h_done = ignore } in
    h.h_start <-
      (fun () ->
        Eventq.post_in t.clock ~delay:(2.0 *. Link.delay t.data_link) h.h_done);
    h.h_done <-
      (fun () ->
        let inc = h.h_inc in
        Array_stack.push t.hs_free h;
        if t.incarnation = inc then complete_handshake t);
    h
  end

let establish ?(at = 0.0) t =
  let h = handshake_cell t in
  h.h_inc <- t.incarnation;
  Eventq.post t.clock ~at h.h_start

(** Tear the subflow down (e.g. WiFi loss during handover): everything in
    flight or buffered is reported as suspected lost so the scheduler can
    reinject it elsewhere. *)
let fail t =
  Sim_log.debug (fun m ->
      m "sbf#%d fails: %d in flight and %d buffered re-queued" t.id
        (in_flight_count t) t.sq_len);
  t.established <- false;
  cancel_rto t;
  Eventq.timer_cancel t.tsq_timer;
  let in_flight = ref [] in
  for seq = t.snd_nxt - 1 downto t.snd_una do
    let e = infl_take t seq in
    if e != dummy_entry then begin
      in_flight := e.e_pkt :: !in_flight;
      (* copies still in the air arrive normally (the receiver side
         of the old incarnation may ack them); the entry recycles
         itself once drained *)
      if e.e_pending = 0 then entry_release e
    end
  done;
  let buffered = ref [] in
  for i = t.sq_len - 1 downto 0 do
    buffered := t.sq.((t.sq_head + i) land (Array.length t.sq - 1)) :: !buffered;
    t.sq.((t.sq_head + i) land (Array.length t.sq - 1)) <- Packet.dummy
  done;
  t.sq_head <- 0;
  t.sq_len <- 0;
  t.on_failed (!in_flight @ !buffered)

(** Re-establish a previously failed subflow at [at] (e.g. WiFi regained
    after a handover): congestion and RTT state restart from scratch, and
    the subflow-level sequence spaces are resynchronized — segments lost
    forever with the old connection were already re-queued at the meta
    level by {!fail}, so the receiver forgets the stale gap and expects
    the fresh connection's first segment. *)
let reestablish ?(at = 0.0) t =
  let inc = t.incarnation in
  Eventq.post t.clock ~at (fun () ->
      if t.incarnation = inc && not t.established then begin
        restart_path_state t;
        (* resync: the new connection's sequence space starts at
           snd_nxt; whatever the old receiver buffered out of order is
           covered by the meta-level re-queue in {!fail} *)
        t.snd_una <- t.snd_nxt;
        t.rcv_expected <- t.snd_nxt;
        Hashtbl.reset t.rcv_ooo;
        Sim_log.debug (fun m -> m "sbf#%d re-establishing" t.id);
        establish ~at:(Eventq.now t.clock) t
      end)

(* ---------- fleet recycling ---------- *)

(** Walk every packet this subflow still references (in-flight ring,
    send ring, receiver out-of-order buffer) — the fleet's release pass
    and the property tests' reachability check. *)
let iter_packets t f =
  for seq = t.snd_una to t.snd_nxt - 1 do
    let e = infl_find t seq in
    if e != dummy_entry then f e.e_pkt
  done;
  for i = 0 to t.sq_len - 1 do
    f (t.sq.((t.sq_head + i) land (Array.length t.sq - 1)))
  done;
  Hashtbl.iter (fun _ p -> f p) t.rcv_ooo

(** Dismantle a retired connection's subflow: release every referenced
    packet through [release_pkt] (flag-deduplicated by the packet pool)
    and recycle or orphan the in-flight entries. Entries with arrival
    events still in the air are orphaned — their fire swallows the
    arrival and returns them to the pool once drained — so no recycled
    slot can ever be reached from a stale event. Bumping the
    incarnation makes every other deferred event of this flow — acks in
    flight, a handshake still completing, copies acked out of the ring —
    inert, so the subflow can be {!reset} and host the next flow. *)
let scrap t ~release_pkt =
  t.incarnation <- t.incarnation + 1;
  cancel_rto t;
  Eventq.timer_cancel t.tsq_timer;
  t.established <- false;
  for seq = t.snd_una to t.snd_nxt - 1 do
    let e = infl_take t seq in
    if e != dummy_entry then begin
      release_pkt e.e_pkt;
      if e.e_pending = 0 then entry_release e
      else begin
        (* orphan: the stale arrival must neither touch the (possibly
           recycled) packet nor ack on the shared link *)
        e.e_sbf <- None;
        e.e_pkt <- Packet.dummy
      end
    end
  done;
  for i = 0 to t.sq_len - 1 do
    let j = (t.sq_head + i) land (Array.length t.sq - 1) in
    release_pkt t.sq.(j);
    t.sq.(j) <- Packet.dummy
  done;
  t.sq_head <- 0;
  t.sq_len <- 0;
  if Hashtbl.length t.rcv_ooo > 0 then begin
    Hashtbl.iter (fun _ p -> release_pkt p) t.rcv_ooo;
    Hashtbl.reset t.rcv_ooo
  end

(** Testing hook (packetdrill analogue, §4.2): inject a segment arrival
    at the receiver side of the subflow, bypassing the link — used to
    craft exact loss/reordering patterns in the receiver test suite. *)
let inject_arrival t ~seq pkt = on_segment_arrival t seq pkt

(** Re-attempt transmission of buffered packets — called by the meta
    socket when a blocking condition may have cleared (e.g. the receive
    window reopened after out-of-order data drained). *)
let kick = try_transmit
