(** Periodic per-subflow time-series collection with ring-buffer
    storage: the flight recorder's instrument panel.

    A collector samples every established subflow of a connection at a
    fixed interval — congestion window, smoothed RTT, RTO, in-flight and
    queue depths, cumulative acked bytes, and the goodput achieved over
    the elapsed interval — into a bounded ring buffer, so memory stays
    O(window) regardless of run length. Samplers are pre-scheduled up to
    an explicit horizon (the {!Stats} pattern): a self-rescheduling tick
    would keep the event queue from ever draining. *)

open Mptcp_sim

type sample = {
  time : float;
  sbf : int;
  path : string;
  cwnd : float;  (** segments *)
  ssthresh : float;
  srtt_ms : float;
  rto_ms : float;
  in_flight : int;
  queued : int;  (** segments buffered at the subflow, not yet on the wire *)
  q : int;
  qu : int;
  rq : int;  (** meta-level queue depths *)
  bytes_acked : int;  (** cumulative, subflow level *)
  goodput_bps : float;
      (** subflow-level acked bytes over the last interval, per second *)
  delivered_bytes : int;  (** cumulative in-order data-level delivery *)
  link_backlog : int;  (** bytes queued at the path's bottleneck buffer *)
  link_drops : int;
      (** cumulative packets rejected at that buffer (tail + AQM),
          across all users of the link *)
}

(* Fixed-capacity ring: [write] is the total number of samples ever
   added; the slot for sample [i] is [i mod capacity], so once full the
   oldest sample is overwritten. *)
type t = {
  ring : sample array;
  capacity : int;
  mutable write : int;
}

let none =
  {
    time = 0.0;
    sbf = 0;
    path = "";
    cwnd = 0.0;
    ssthresh = 0.0;
    srtt_ms = 0.0;
    rto_ms = 0.0;
    in_flight = 0;
    queued = 0;
    q = 0;
    qu = 0;
    rq = 0;
    bytes_acked = 0;
    goodput_bps = 0.0;
    delivered_bytes = 0;
    link_backlog = 0;
    link_drops = 0;
  }

let create ?(capacity = 65536) () =
  if capacity <= 0 then invalid_arg "Metrics.create: capacity must be positive";
  { ring = Array.make capacity none; capacity; write = 0 }

let add t s =
  t.ring.(t.write mod t.capacity) <- s;
  t.write <- t.write + 1

let length t = min t.write t.capacity

let dropped t = max 0 (t.write - t.capacity)

(** Iterate retained samples, oldest first. *)
let iter t f =
  let first = max 0 (t.write - t.capacity) in
  for i = first to t.write - 1 do
    f t.ring.(i mod t.capacity)
  done

let fold t f init =
  let acc = ref init in
  iter t (fun s -> acc := f !acc s);
  !acc

let to_list t = List.rev (fold t (fun acc s -> s :: acc) [])

(* ---------- CSV ---------- *)

let csv_header =
  "time,sbf,path,cwnd,ssthresh,srtt_ms,rto_ms,in_flight,queued,q,qu,rq,\
   bytes_acked,goodput_bps,delivered_bytes,link_backlog,link_drops"

let write_row oc s =
  Printf.fprintf oc
    "%.6f,%d,%s,%.3f,%.3f,%.3f,%.3f,%d,%d,%d,%d,%d,%d,%.1f,%d,%d,%d\n" s.time
    s.sbf s.path s.cwnd s.ssthresh s.srtt_ms s.rto_ms s.in_flight s.queued s.q
    s.qu s.rq s.bytes_acked s.goodput_bps s.delivered_bytes s.link_backlog
    s.link_drops

(** Write header plus every retained sample, oldest first. *)
let to_csv oc t =
  output_string oc (csv_header ^ "\n");
  iter t (fun s -> write_row oc s)

(* ---------- collection ---------- *)

let sample_subflow ~time ~interval ~prev_acked ~delivered (m : Path_manager.managed)
    (env : Progmp_runtime.Env.t) =
  let s = m.Path_manager.subflow in
  let goodput_bps =
    if interval > 0.0 then
      float_of_int (s.Tcp_subflow.bytes_acked - prev_acked) /. interval
    else 0.0
  in
  {
    time;
    sbf = s.Tcp_subflow.id;
    path = m.Path_manager.spec.Path_manager.path_name;
    cwnd = s.Tcp_subflow.f.cwnd;
    ssthresh = s.Tcp_subflow.f.ssthresh;
    srtt_ms = s.Tcp_subflow.f.srtt *. 1e3;
    rto_ms = s.Tcp_subflow.rto *. 1e3;
    in_flight = Tcp_subflow.in_flight_count s;
    queued = Tcp_subflow.queued_count s;
    q = Progmp_runtime.Pqueue.length env.Progmp_runtime.Env.q;
    qu = Progmp_runtime.Pqueue.length env.Progmp_runtime.Env.qu;
    rq = Progmp_runtime.Pqueue.length env.Progmp_runtime.Env.rq;
    bytes_acked = s.Tcp_subflow.bytes_acked;
    goodput_bps;
    delivered_bytes = delivered;
    link_backlog = Link.backlog_bytes m.Path_manager.data_link;
    link_drops = Link.dropped m.Path_manager.data_link;
  }

(** Attach a collector to [conn]: one tick every [interval] seconds from
    the first multiple of [interval] onward, pre-scheduled up to [until]
    (ticks never re-arm themselves, so the event queue still drains).
    Each tick appends one sample per currently managed subflow. *)
let attach ?capacity ~interval ~until (conn : Connection.t) =
  if interval <= 0.0 then invalid_arg "Metrics.attach: interval must be positive";
  let t = create ?capacity () in
  let env = Meta_socket.env conn.Connection.meta in
  (* per-subflow acked-bytes at the previous tick, for goodput deltas *)
  let prev : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let tick () =
    let time = Connection.now conn in
    let delivered = Connection.delivered_bytes conn in
    List.iter
      (fun m ->
        let s = m.Path_manager.subflow in
        let prev_acked =
          match Hashtbl.find_opt prev s.Tcp_subflow.id with
          | Some b -> b
          | None -> 0
        in
        add t (sample_subflow ~time ~interval ~prev_acked ~delivered m env);
        Hashtbl.replace prev s.Tcp_subflow.id s.Tcp_subflow.bytes_acked)
      conn.Connection.paths
  in
  let time = ref interval in
  while !time <= until do
    Connection.at conn ~time:!time tick;
    time := !time +. interval
  done;
  t
