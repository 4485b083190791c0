(** The MPTCP meta socket: the central abstraction of a connection
    (paper §2.1), tying the application-facing socket, the sending
    queues, the scheduler and the subflows together.

    Sender side: application writes are segmented into packets that enter
    the sending queue Q; the scheduler is triggered by the calling-model
    events of Fig. 4 (new data in Q, acks, reinjections, subflow
    establishment) and its PUSH/DROP actions are applied to the subflows.
    Suspected losses enter the reinjection queue RQ automatically;
    data-acked packets are removed from {e all} queues.

    Receiver side: data-level reordering with cumulative data acks and a
    finite receive buffer that backs the advertised window
    ([HAS_WINDOW_FOR]). Delivery times per segment feed the experiment
    statistics (FCT, goodput). *)

open Progmp_runtime

(** Receiver-side delivery discipline. [Ordered] is MPTCP: data reaches
    the application in data-sequence order. [Unordered] departs from the
    in-order property as the paper's "Going Beyond MPTCP" (§6)
    envisions for multipath media transports ([34], [36]): every first
    copy is handed to the application immediately, the out-of-order
    buffer stays empty, and only the cumulative data-ack bookkeeping
    still tracks sequence numbers. *)
type ordering = Ordered | Unordered

type t = {
  name : string;
  clock : Eventq.t;
  sock : Api.socket;
  mss : int;
  mutable subflows : Tcp_subflow.t list;
  mutable next_seq : int;  (** next data sequence number (segment units) *)
  mutable data_una : int;  (** highest cumulative data ack received *)
  mutable compressed : bool;  (** use compressed executions (§4.1) *)
  mutable scheduling : bool;  (** re-entrancy guard *)
  (* receiver state *)
  ordering : ordering;
  mutable rcv_expected : int;
  rcv_ooo : (int, int) Hashtbl.t;  (** data seq -> size, buffered out of order *)
  mutable rcv_ooo_bytes : int;
  rcv_buffer_bytes : int;
  mutable on_deliver : seq:int -> size:int -> time:float -> unit;
  (* statistics *)
  delivery_time : (int, float) Hashtbl.t;  (** data seq -> in-order delivery *)
  mutable delivered_bytes : int;
  mutable delivered_segments : int;
  mutable app_segments : int;  (** distinct segments written by the app *)
  mutable pushes : int;  (** PUSH actions applied *)
  mutable drops : int;  (** DROP actions applied *)
  mutable data_dropped : int;  (** dropped without ever being sent *)
  mutable sched_executions : int;
  mutable view_arenas : Subflow_view.t array array;
      (** reusable snapshot arrays for {!snapshot}, one per
          established-subflow count (index), built at the count's first
          use and refilled per trigger after that *)
  mutable packet_pool : Packet.Pool.t option;
      (** when set (fleet-hosted connections), {!write} draws packet
          records from this arena instead of allocating *)
  pool_pkts : Packet.t Array_stack.t;
      (** every packet drawn from [packet_pool]: delivered segments
          leave the queues and rings long before the flow retires, so
          {!scrap} releases from this registry (release is
          deduplicated) to return the whole flow to the arena *)
  mutable snapshot_fn : unit -> Subflow_view.t array;
      (** the compressed loop's [snapshot] callback, built once *)
  mutable apply_fn : Action.t -> unit;
      (** the compressed loop's [apply] callback, built once *)
}

let env t = t.sock.Api.env

(* ---------- receiver ---------- *)

let rwnd_bytes t = max 0 (t.rcv_buffer_bytes - t.rcv_ooo_bytes)

let deliver_in_order t seq size =
  let now = Eventq.now t.clock in
  (* Fleet-hosted (pooled) ordered connections skip the per-segment
     delivery log: the fleet derives FCT from arrival/retire times, and
     a million-connection fleet cannot afford ~7 words of history per
     delivered segment. Unordered mode always records — the log doubles
     as its first-copy dedup set. *)
  if t.packet_pool = None || t.ordering = Unordered then
    Hashtbl.replace t.delivery_time seq now;
  t.delivered_bytes <- t.delivered_bytes + size;
  t.delivered_segments <- t.delivered_segments + 1;
  t.on_deliver ~seq ~size ~time:now

(* Unordered mode: deliver first copies at once; [rcv_expected] (and so
   the cumulative data ack) advances over the set of delivered seqs. *)
let on_meta_receive_unordered t (pkt : Packet.t) =
  let seq = pkt.Packet.seq in
  if seq >= t.rcv_expected && not (Hashtbl.mem t.delivery_time seq) then begin
    deliver_in_order t seq pkt.Packet.size;
    while Hashtbl.mem t.delivery_time t.rcv_expected do
      t.rcv_expected <- t.rcv_expected + 1
    done
  end

(* Deliver what the out-of-order buffer holds from [rcv_expected] on. A
   top-level loop rather than a local closure: it runs per arrival. *)
let rec drain_ooo t =
  match Hashtbl.find_opt t.rcv_ooo t.rcv_expected with
  | Some size ->
      Hashtbl.remove t.rcv_ooo t.rcv_expected;
      t.rcv_ooo_bytes <- t.rcv_ooo_bytes - size;
      deliver_in_order t t.rcv_expected size;
      t.rcv_expected <- t.rcv_expected + 1;
      drain_ooo t
  | None -> ()

let on_meta_receive_ordered t (pkt : Packet.t) =
  let seq = pkt.Packet.seq in
  if seq = t.rcv_expected then begin
    t.rcv_expected <- seq + 1;
    deliver_in_order t seq pkt.Packet.size;
    if Hashtbl.length t.rcv_ooo > 0 then drain_ooo t
  end
  else if seq > t.rcv_expected && not (Hashtbl.mem t.rcv_ooo seq) then begin
    Hashtbl.replace t.rcv_ooo seq pkt.Packet.size;
    t.rcv_ooo_bytes <- t.rcv_ooo_bytes + pkt.Packet.size
  end
(* duplicates and already-delivered copies are ignored: first copy wins *)

let on_meta_receive t pkt =
  match t.ordering with
  | Ordered -> on_meta_receive_ordered t pkt
  | Unordered -> on_meta_receive_unordered t pkt

(* ---------- snapshots and actions ---------- *)

(* Per-trigger subflow snapshot. The arrays are arenas owned by the
   meta socket, one per established count, so each trigger only
   refills one: the per-packet decision path allocates no intermediate
   list, no fresh array and no closure, even while subflows come and
   go during a flow's handshakes. *)
let rec count_established n = function
  | [] -> n
  | s :: rest ->
      count_established (if s.Tcp_subflow.established then n + 1 else n) rest

let rec fill_views ~reads arena i = function
  | [] -> ()
  | s :: rest ->
      if s.Tcp_subflow.established then begin
        Tcp_subflow.view_into ~reads s arena.(i);
        fill_views ~reads arena (i + 1) rest
      end
      else fill_views ~reads arena i rest

let snapshot t =
  let count = count_established 0 t.subflows in
  if count >= Array.length t.view_arenas then begin
    let grown = Array.make (count + 1) [||] in
    Array.blit t.view_arenas 0 grown 0 (Array.length t.view_arenas);
    t.view_arenas <- grown
  end;
  if Array.length t.view_arenas.(count) <> count then
    (* distinct records per slot: the refill below mutates them in place *)
    t.view_arenas.(count) <- Array.init count (fun _ -> Subflow_view.fresh ());
  let arena = t.view_arenas.(count) in
  (* only what the current scheduler can read: looked up per snapshot,
     so a scheduler swapped mid-flow gets its own fields *)
  fill_views ~reads:t.sock.Api.scheduler.Scheduler.reads arena 0 t.subflows;
  arena

(* A PUSH whose target subflow is gone or not established: never lose
   the packet (§3.3). *)
let requeue t (pkt : Packet.t) =
  if
    (not pkt.Packet.acked)
    && (not (Pqueue.mem (env t).Env.q pkt))
    && pkt.Packet.sent_count = 0
  then Pqueue.push_front (env t).Env.q pkt

(* PUSH onto the first subflow with id [sbf_id]: a walk of the list, not
   [List.find_opt], so a push allocates no closure and no option. *)
let rec push_to t sbf_id (pkt : Packet.t) = function
  | [] -> requeue t pkt
  | sbf :: rest ->
      if sbf.Tcp_subflow.id <> sbf_id then push_to t sbf_id pkt rest
      else if not sbf.Tcp_subflow.established then requeue t pkt
      else if not pkt.Packet.acked then begin
        t.pushes <- t.pushes + 1;
        Packet.mark_sent pkt ~sbf_id;
        if not (Pqueue.mem (env t).Env.qu pkt) then
          Pqueue.push_back (env t).Env.qu pkt;
        Tcp_subflow.send sbf pkt
      end

let apply_action t (a : Action.t) =
  match a with
  | Action.Push { sbf_id; pkt } -> push_to t sbf_id pkt t.subflows
  | Action.Drop pkt ->
      t.drops <- t.drops + 1;
      if pkt.Packet.sent_count = 0 && not pkt.Packet.acked then
        t.data_dropped <- t.data_dropped + 1

(* ---------- construction and reset ---------- *)

(** Return the meta socket to its freshly created state, in place: the
    connection-recycle path, valid once {!scrap} has released what the
    last flow held. Configuration, the subflow list, the delivery hook,
    the packet arena and the snapshot arena survive. *)
let reset t =
  Api.reset t.sock;
  t.next_seq <- 0;
  t.data_una <- 0;
  t.scheduling <- false;
  t.rcv_expected <- 0;
  Hashtbl.reset t.rcv_ooo;
  t.rcv_ooo_bytes <- 0;
  Hashtbl.reset t.delivery_time;
  t.delivered_bytes <- 0;
  t.delivered_segments <- 0;
  t.app_segments <- 0;
  t.pushes <- 0;
  t.drops <- 0;
  t.data_dropped <- 0;
  t.sched_executions <- 0;
  Array_stack.clear t.pool_pkts

(* The record literal only allocates; {!reset} sets the per-flow
   state. *)
let create ?(name = "conn") ?(mss = 1448) ?(rcv_buffer = 4 lsl 20)
    ?(compressed = true) ?(ordering = Ordered) ?scheduler ~clock () =
  let t =
    {
      name;
      clock;
      sock = Api.create ~name ?scheduler ();
      mss;
      subflows = [];
      next_seq = 0;
      data_una = 0;
      compressed;
      scheduling = false;
      ordering;
      rcv_expected = 0;
      rcv_ooo = Hashtbl.create 4;
      rcv_ooo_bytes = 0;
      rcv_buffer_bytes = rcv_buffer;
      on_deliver = (fun ~seq:_ ~size:_ ~time:_ -> ());
      delivery_time = Hashtbl.create 4;
      delivered_bytes = 0;
      delivered_segments = 0;
      app_segments = 0;
      pushes = 0;
      drops = 0;
      data_dropped = 0;
      sched_executions = 0;
      view_arenas = [||];
      packet_pool = None;
      pool_pkts = Array_stack.create ~pad:Packet.dummy;
      snapshot_fn = (fun () -> [||]);
      apply_fn = ignore;
    }
  in
  t.snapshot_fn <-
    (fun () ->
      t.sched_executions <- t.sched_executions + 1;
      snapshot t);
  t.apply_fn <- apply_action t;
  reset t;
  t

(* ---------- scheduler triggering ---------- *)

(** Run the scheduler now (one of the calling-model events fired). *)
let trigger t =
  if not t.scheduling then begin
    t.scheduling <- true;
    let sched = t.sock.Api.scheduler in
    let e = env t in
    if t.compressed then
      ignore
        (Scheduler.execute_compressed sched e ~snapshot:t.snapshot_fn
           ~apply:t.apply_fn)
    else begin
      t.sched_executions <- t.sched_executions + 1;
      let actions = Scheduler.execute sched e ~subflows:(snapshot t) in
      List.iter (apply_action t) actions
    end;
    (* a trigger also acts as a window update: blocking conditions (the
       advertised receive window, a reopened congestion window) may have
       cleared for subflows that have no ack of their own pending *)
    List.iter
      (fun s -> if s.Tcp_subflow.established then Tcp_subflow.kick s)
      t.subflows;
    (* data left queued may wait on a throttled subflow that no ack
       will wake *)
    if not (Pqueue.is_empty e.Env.q && Pqueue.is_empty e.Env.rq) then
      List.iter Tcp_subflow.arm_tsq_wakeup t.subflows;
    t.scheduling <- false
  end

(* ---------- sender-side callbacks from subflows ---------- *)

let on_data_ack t upto =
  if upto > t.data_una then t.data_una <- upto;
  if upto > 0 then begin
    let e = env t in
    (* acknowledged packets leave all queues; the ack made progress if
       it covered an in-flight packet not acked before *)
    let progressed = Pqueue.ack_below e.Env.qu upto in
    ignore (Pqueue.ack_below e.Env.q upto);
    ignore (Pqueue.ack_below e.Env.rq upto);
    if progressed then trigger t
  end

let on_suspected_loss t (pkt : Packet.t) =
  if (not pkt.Packet.acked) && not (Pqueue.mem (env t).Env.rq pkt) then begin
    Sim_log.debug (fun m ->
        m "%s: seq %d suspected lost, enters RQ (|RQ| = %d)" t.name
          pkt.Packet.seq
          (Pqueue.length (env t).Env.rq + 1));
    Pqueue.push_back (env t).Env.rq pkt;
    trigger t
  end

(* A subflow died: its unacknowledged packets are no longer in flight on
   that path; re-queue them (in sequence order) at the front of Q so any
   scheduler — including ones that ignore RQ — re-schedules them. *)
let on_subflow_failed t pkts =
  let e = env t in
  let requeued =
    List.filter
      (fun (p : Packet.t) ->
        ignore (Pqueue.remove_packet e.Env.rq p);
        (not p.Packet.acked) && not (Pqueue.mem e.Env.q p))
      pkts
  in
  List.iter
    (fun p -> Pqueue.push_front e.Env.q p)
    (List.rev
       (List.sort (fun (a : Packet.t) b -> compare a.Packet.seq b.Packet.seq) requeued));
  if requeued <> [] then trigger t

(* ---------- wiring ---------- *)

(** Attach a subflow created by the path manager. *)
let attach t (sbf : Tcp_subflow.t) =
  sbf.Tcp_subflow.on_meta_deliver <- (fun pkt -> on_meta_receive t pkt);
  sbf.Tcp_subflow.on_suspected_loss <- (fun pkt -> on_suspected_loss t pkt);
  sbf.Tcp_subflow.on_failed <- (fun pkts -> on_subflow_failed t pkts);
  sbf.Tcp_subflow.on_sender_event <- (fun () -> trigger t);
  sbf.Tcp_subflow.is_data_acked <- (fun pkt -> pkt.Packet.acked);
  sbf.Tcp_subflow.data_ack_value <- (fun () -> t.rcv_expected);
  sbf.Tcp_subflow.on_data_ack <- (fun upto -> on_data_ack t upto);
  sbf.Tcp_subflow.rwnd_bytes <- (fun () -> rwnd_bytes t);
  sbf.Tcp_subflow.rwnd_exempt <-
    (fun pkt -> pkt.Packet.seq <= t.data_una);
  t.subflows <- t.subflows @ [ sbf ]

(* ---------- application interface ---------- *)

let segment_count t bytes = max 1 ((bytes + t.mss - 1) / t.mss)

(** Write [bytes] of application data: segments enter the sending queue Q
    stamped with the socket's current packet properties, and the
    scheduler is triggered. {!write} without the list of sequence
    numbers — what a fleet arrival calls. *)
let enqueue ?props t bytes =
  (* packet creation copies the properties, so the socket's own array
     can be passed without a copy of its own *)
  let props = match props with Some p -> p | None -> t.sock.Api.default_props in
  let now = Eventq.now t.clock in
  let nsegs = segment_count t bytes in
  for i = 0 to nsegs - 1 do
    let size = if i = nsegs - 1 then bytes - ((nsegs - 1) * t.mss) else t.mss in
    let size = max 1 size in
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    t.app_segments <- t.app_segments + 1;
    let pkt =
      match t.packet_pool with
      | Some pool ->
          let p = Packet.Pool.alloc pool ~props ~seq ~size ~now in
          Array_stack.push t.pool_pkts p;
          p
      | None -> Packet.create ~props ~seq ~size ~now ()
    in
    Pqueue.push_back (env t).Env.q pkt
  done;
  trigger t

(** {!enqueue}, returning the data sequence numbers used. *)
let write ?props t bytes =
  let first = t.next_seq in
  enqueue ?props t bytes;
  List.init (segment_count t bytes) (fun i -> first + i)

(** All data written so far has been delivered in order to the receiving
    application. *)
let all_delivered t = t.rcv_expected >= t.next_seq

(** In-order delivery time of a data segment, if delivered. *)
let delivery_time_of t seq = Hashtbl.find_opt t.delivery_time seq

(** Release every packet this connection still references back to
    [release_pkt] and empty the queues — the fleet's slot-recycle pass.
    The packet pool deduplicates by flag, so a packet reachable from Q,
    QU, RQ, a subflow ring and the receiver buffer at once is released
    exactly once. Subflow entries with arrival events still in the air
    are orphaned and recycle themselves once drained. *)
let scrap t ~release_pkt =
  let e = env t in
  Pqueue.iter e.Env.q release_pkt;
  Pqueue.iter e.Env.qu release_pkt;
  Pqueue.iter e.Env.rq release_pkt;
  Pqueue.clear e.Env.q;
  Pqueue.clear e.Env.qu;
  Pqueue.clear e.Env.rq;
  List.iter (fun s -> Tcp_subflow.scrap s ~release_pkt) t.subflows;
  (* delivered segments left the queues and rings while the flow ran;
     the registry returns them (and only-once, by flag) to the arena,
     newest first *)
  while Array_stack.length t.pool_pkts > 0 do
    release_pkt (Array_stack.pop t.pool_pkts)
  done

(** Flow completion time of the segment range [first, last]: the latest
    in-order delivery time, or [None] when incomplete. *)
let fct t ~first ~last =
  let rec go seq acc =
    if seq > last then Some acc
    else
      match delivery_time_of t seq with
      | Some d -> go (seq + 1) (Float.max acc d)
      | None -> None
  in
  go first 0.0
