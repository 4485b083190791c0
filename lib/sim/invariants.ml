(** Cross-layer invariant checking for a running connection.

    A checker attaches to a {!Connection.t} and re-validates, after every
    simulator event, the properties that must survive arbitrary network
    dynamics (fault scripts, handover, burst loss):

    - sequence accounting per subflow: [snd_una <= snd_nxt], and never
      more segments in flight than the unacknowledged window;
    - in-flight <= cwnd accounting: the in-flight count never exceeds the
      congestion-window high-watermark since the flight last drained
      (cwnd may shrink below the flight during recovery, but nothing may
      be {e transmitted} beyond the window);
    - cwnd never collapses below one segment;
    - no subflow progress while its link is down: a dark data link
      freezes the receiver's subflow-level cumulative ack, a dark ack
      link freezes [snd_una]/[bytes_acked];
    - meta-level delivery: every data segment reaches the application
      exactly once — and, under [Ordered] delivery, in sequence — with
      byte counters consistent;
    - scheduler-visible views reflect ground truth at snapshot time
      (backup/lossy flags, cwnd, in-flight), so injected state
      ([Set_backup], [Set_lossy], failures) is what schedulers observe;
    - queue hygiene: acknowledged packets leave every queue, so no
      packet in Q, QU or RQ has a seq below [data_una], the cumulative
      data ack. Scanned only when [data_una] moved since the last
      check, so checked runs pay per ack, not per event.

    Violations are collected (capped), never raised mid-run: a sweep can
    finish and report everything at once. *)

type t = {
  conn : Connection.t;
  max_recorded : int;
  mutable total : int;
  mutable recorded : string list;  (** newest first, capped *)
  mutable next_in_order : int;  (** expected next seq under [Ordered] *)
  delivered_once : (int, unit) Hashtbl.t;
      (** seqs delivered so far (used under [Unordered] only) *)
  mutable delivered_bytes_seen : int;
  cwnd_hw : (int, float) Hashtbl.t;
      (** subflow id -> cwnd high-watermark since the flight drained *)
  frozen_rx : (int, int) Hashtbl.t;
      (** subflow id -> rcv_expected when its data link went dark *)
  frozen_tx : (int, int * int) Hashtbl.t;
      (** subflow id -> (bytes_acked, snd_una) when its ack link went dark *)
  mutable hygiene_una : int;  (** [data_una] at the last queue-hygiene scan *)
}

let violation t fmt =
  Fmt.kstr
    (fun msg ->
      t.total <- t.total + 1;
      if t.total <= t.max_recorded then
        t.recorded <-
          Fmt.str "t=%.6f: %s" (Connection.now t.conn) msg :: t.recorded)
    fmt

let check_subflow t (m : Path_manager.managed) =
  let s = m.Path_manager.subflow in
  let id = s.Tcp_subflow.id in
  let name = m.Path_manager.spec.Path_manager.path_name in
  let inflight = Tcp_subflow.in_flight_count s in
  (* sequence accounting *)
  if s.Tcp_subflow.snd_una > s.Tcp_subflow.snd_nxt then
    violation t "%s: snd_una %d ahead of snd_nxt %d" name
      s.Tcp_subflow.snd_una s.Tcp_subflow.snd_nxt;
  if inflight > s.Tcp_subflow.snd_nxt - s.Tcp_subflow.snd_una then
    violation t "%s: %d in flight exceeds unacked window [%d, %d)" name
      inflight s.Tcp_subflow.snd_una s.Tcp_subflow.snd_nxt;
  (* cwnd floor *)
  if s.Tcp_subflow.f.cwnd < 1.0 then
    violation t "%s: cwnd collapsed to %.3f" name s.Tcp_subflow.f.cwnd;
  (* in-flight <= cwnd high-watermark since the flight drained: cwnd may
     shrink below the flight (recovery), but transmission past the
     window would show up as a flight above every window held since *)
  let hw =
    let prev =
      match Hashtbl.find_opt t.cwnd_hw id with
      | Some p -> p
      | None -> s.Tcp_subflow.f.cwnd
    in
    if inflight = 0 then s.Tcp_subflow.f.cwnd
    else Float.max prev s.Tcp_subflow.f.cwnd
  in
  Hashtbl.replace t.cwnd_hw id hw;
  if inflight > int_of_float hw then
    violation t "%s: %d in flight above cwnd high-watermark %.1f" name
      inflight hw;
  (* no progress over a dark link (only meaningful while established:
     re-establishment legitimately resynchronizes the sequence spaces) *)
  if s.Tcp_subflow.established then begin
    (if not (Link.is_up m.Path_manager.data_link) then (
       match Hashtbl.find_opt t.frozen_rx id with
       | None -> Hashtbl.replace t.frozen_rx id s.Tcp_subflow.rcv_expected
       | Some frozen ->
           if s.Tcp_subflow.rcv_expected > frozen then
             violation t
               "%s: receiver advanced %d -> %d while the data link was down"
               name frozen s.Tcp_subflow.rcv_expected)
     else Hashtbl.remove t.frozen_rx id);
    if not (Link.is_up m.Path_manager.ack_link) then (
      match Hashtbl.find_opt t.frozen_tx id with
      | None ->
          Hashtbl.replace t.frozen_tx id
            (s.Tcp_subflow.bytes_acked, s.Tcp_subflow.snd_una)
      | Some (acked, una) ->
          if s.Tcp_subflow.bytes_acked > acked || s.Tcp_subflow.snd_una > una
          then
            violation t
              "%s: sender progressed (acked %d -> %d, una %d -> %d) while \
               the ack link was down"
              name acked s.Tcp_subflow.bytes_acked una s.Tcp_subflow.snd_una)
    else Hashtbl.remove t.frozen_tx id
  end
  else begin
    Hashtbl.remove t.frozen_rx id;
    Hashtbl.remove t.frozen_tx id
  end;
  (* the scheduler-visible snapshot must reflect ground truth, including
     injected backup/lossy state *)
  let v = Tcp_subflow.view s in
  if v.Progmp_runtime.Subflow_view.is_backup <> s.Tcp_subflow.is_backup then
    violation t "%s: view backup=%b but subflow backup=%b" name
      v.Progmp_runtime.Subflow_view.is_backup s.Tcp_subflow.is_backup;
  if v.Progmp_runtime.Subflow_view.lossy <> Tcp_subflow.lossy s then
    violation t "%s: view lossy=%b but subflow lossy=%b" name
      v.Progmp_runtime.Subflow_view.lossy (Tcp_subflow.lossy s);
  if v.Progmp_runtime.Subflow_view.cwnd <> int_of_float s.Tcp_subflow.f.cwnd
  then
    violation t "%s: view cwnd=%d but subflow cwnd=%.1f" name
      v.Progmp_runtime.Subflow_view.cwnd s.Tcp_subflow.f.cwnd;
  if v.Progmp_runtime.Subflow_view.skbs_in_flight <> inflight then
    violation t "%s: view in-flight=%d but subflow in-flight=%d" name
      v.Progmp_runtime.Subflow_view.skbs_in_flight inflight

let check_queue_hygiene t (meta : Meta_socket.t) =
  let una = meta.Meta_socket.data_una in
  if una <> t.hygiene_una then begin
    t.hygiene_una <- una;
    let open Progmp_runtime in
    let e = Meta_socket.env meta in
    List.iter
      (fun q ->
        Pqueue.iter q (fun (p : Packet.t) ->
            if p.seq < una then
              violation t "meta: seq %d still in %s after data ack %d" p.seq
                (Pqueue.name q) una))
      [ e.Env.q; e.Env.qu; e.Env.rq ]
  end

(** Run every check now (also called automatically after each event). *)
let check_now t =
  List.iter (check_subflow t) t.conn.Connection.paths;
  let meta = t.conn.Connection.meta in
  check_queue_hygiene t meta;
  if meta.Meta_socket.rcv_ooo_bytes < 0 then
    violation t "meta: negative out-of-order byte count %d"
      meta.Meta_socket.rcv_ooo_bytes;
  if t.delivered_bytes_seen <> meta.Meta_socket.delivered_bytes then
    violation t "meta: delivered %d bytes but callbacks saw %d"
      meta.Meta_socket.delivered_bytes t.delivered_bytes_seen

let on_deliver t ~seq ~size ~time:_ =
  let meta = t.conn.Connection.meta in
  t.delivered_bytes_seen <- t.delivered_bytes_seen + size;
  match meta.Meta_socket.ordering with
  | Meta_socket.Ordered ->
      (* in-order delivery is strictly sequential, which also rules out
         duplicates *)
      if seq <> t.next_in_order then begin
        violation t "meta: delivered seq %d, expected %d" seq t.next_in_order;
        t.next_in_order <- max t.next_in_order (seq + 1)
      end
      else t.next_in_order <- seq + 1
  | Meta_socket.Unordered ->
      if Hashtbl.mem t.delivered_once seq then
        violation t "meta: seq %d delivered twice" seq
      else Hashtbl.replace t.delivered_once seq ()

(** Attach a checker: wraps the meta socket's delivery callback (chaining
    with whatever is already installed) and registers an event-queue
    observer, so every subsequent event is validated. Attach {e after}
    installing any experiment-side [on_deliver] hook. The observer only
    reads connection state and records violations — event-queue
    observers are enforced read-only ({!Eventq.add_observer} raises on
    any post, timer arm or cancel from inside one). *)
let attach ?(max_recorded = 20) (conn : Connection.t) =
  let t =
    {
      conn;
      max_recorded;
      total = 0;
      recorded = [];
      next_in_order = conn.Connection.meta.Meta_socket.rcv_expected;
      delivered_once = Hashtbl.create 256;
      delivered_bytes_seen = conn.Connection.meta.Meta_socket.delivered_bytes;
      cwnd_hw = Hashtbl.create 8;
      frozen_rx = Hashtbl.create 8;
      frozen_tx = Hashtbl.create 8;
      hygiene_una = conn.Connection.meta.Meta_socket.data_una;
    }
  in
  let meta = conn.Connection.meta in
  let prev = meta.Meta_socket.on_deliver in
  meta.Meta_socket.on_deliver <-
    (fun ~seq ~size ~time ->
      prev ~seq ~size ~time;
      on_deliver t ~seq ~size ~time);
  Eventq.add_observer conn.Connection.clock (fun () -> check_now t);
  t

let total t = t.total

(** Recorded violation messages, oldest first (capped at
    [max_recorded]). *)
let violations t = List.rev t.recorded

let ok t = t.total = 0

(** [None] when clean; otherwise a one-paragraph report. *)
let report t =
  if ok t then None
  else
    Some
      (Fmt.str "%d invariant violation%s:@\n%a" t.total
         (if t.total = 1 then "" else "s")
         Fmt.(list ~sep:(any "@\n") string)
         (violations t))
