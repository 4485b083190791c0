(** A complete simulated MPTCP connection: clock, RNG, meta socket,
    managed paths, and convenience accessors for experiments. This is the
    top-level object benchmark scenarios construct. *)

type t = {
  clock : Eventq.t;
  rng : Rng.t;
  meta : Meta_socket.t;
  cc : Congestion.policy;
  min_rto : float;
  delivery_mode : Tcp_subflow.delivery_mode;
  entry_pool : Tcp_subflow.entry_pool option;
  mutable paths : Path_manager.managed list;
}

let install_cc cc managed =
  Congestion.install cc (List.map (fun m -> m.Path_manager.subflow) managed)

(** Build a connection over [paths]: one subflow per path, over the
    path's own links when it names them (several connections handed the
    same {!Link.t} then compete for its bottleneck — the
    shared-bottleneck scenarios of §2.1), over a private pair drawn from
    the connection's RNG otherwise. [delivery_mode] selects the receiver
    behaviour of §4.2 (defaults to the paper's earliest-possible
    delivery); [cc] the congestion-control coupling. Pass [clock] (and a
    distinct [seed]) to place several connections in the same simulated
    network; paths with links need the links' clock. *)
let create ?clock ?(seed = 42) ?(mss = 1448) ?(rcv_buffer = 4 lsl 20)
    ?(compressed = true) ?(min_rto = 0.2)
    ?(delivery_mode = Tcp_subflow.Immediate)
    ?(ordering = Meta_socket.Ordered) ?(cc = Congestion.Lia) ?entry_pool
    ?packet_pool ?scheduler ~paths () =
  let clock = match clock with Some c -> c | None -> Eventq.create () in
  let rng = Rng.create seed in
  let meta =
    Meta_socket.create ~mss ~rcv_buffer ~compressed ~ordering ?scheduler ~clock
      ()
  in
  meta.Meta_socket.packet_pool <- packet_pool;
  let managed =
    List.mapi
      (fun id spec ->
        Path_manager.attach ~clock ~rng ~meta ~min_rto ~delivery_mode
          ?entry_pool ~id spec)
      paths
  in
  install_cc cc managed;
  { clock; rng; meta; cc; min_rto; delivery_mode; entry_pool; paths = managed }

(** Host a new flow on a connection whose last flow was scrapped
    ({!scrap}): meta socket, socket environment, subflows and RNG go
    back to the state {!create} built them in — [seed] plays
    the role of its [seed] — and every path starts its handshake again
    at its spec's establish time. The subflows' incarnations moved on at
    the scrap, so the old flow's events still in flight find nothing to
    act on. The links are the network's and keep their state. *)
let recycle t ~seed =
  Rng.reseed t.rng seed;
  Meta_socket.reset t.meta;
  List.iter
    (fun m ->
      let sbf = m.Path_manager.subflow in
      Tcp_subflow.reset sbf;
      sbf.Tcp_subflow.is_backup <- m.Path_manager.spec.Path_manager.backup;
      Tcp_subflow.establish ~at:m.Path_manager.spec.Path_manager.establish_at
        sbf)
    t.paths

let now t = Eventq.now t.clock

(** Run the event loop (optionally up to an absolute time). *)
let run ?until t = ignore (Eventq.run ?until t.clock)

(** Schedule an action at an absolute simulation time. *)
let at t ~time f = Eventq.post t.clock ~at:time f

let sock t = t.meta.Meta_socket.sock

(** Nudge the scheduler (e.g. after the application changed a register):
    one of the Fig. 4 calling-model events. *)
let notify_scheduler t = Meta_socket.trigger t.meta

(** Write application data now (see {!Meta_socket.write}). *)
let write ?props t bytes = Meta_socket.write ?props t.meta bytes

(** Write application data at a future time. *)
let write_at ?props t ~time bytes =
  at t ~time (fun () -> ignore (Meta_socket.write ?props t.meta bytes))

let subflow t i = (List.nth t.paths i).Path_manager.subflow

let data_link t i = (List.nth t.paths i).Path_manager.data_link

let find_path t name =
  List.find_opt (fun m -> m.Path_manager.spec.Path_manager.path_name = name) t.paths

(** Dynamically add a path (handover scenarios), built with the
    connection's own subflow options. The connection's
    congestion policy is reinstalled across {e all} subflows so a
    coupled increase sees the newcomer — without this the added
    subflow ran uncoupled Reno and was invisible to the aggregate. *)
let add_path t ~at spec =
  let m =
    Path_manager.attach ~clock:t.clock ~rng:t.rng ~meta:t.meta
      ~min_rto:t.min_rto ~delivery_mode:t.delivery_mode
      ?entry_pool:t.entry_pool ~id:(List.length t.paths)
      { spec with Path_manager.establish_at = at }
  in
  t.paths <- t.paths @ [ m ];
  install_cc t.cc t.paths;
  m

(** Fail a path at a given time. *)
let fail_path t m ~at = Path_manager.fail_subflow ~clock:t.clock m ~at

(** Fleet slot-recycle pass: release every packet the connection still
    references through [release_pkt] (see {!Meta_socket.scrap}). *)
let scrap t ~release_pkt = Meta_socket.scrap t.meta ~release_pkt

(** Total application bytes delivered in order at the receiver. *)
let delivered_bytes t = t.meta.Meta_socket.delivered_bytes

(** Bytes put on the wire per subflow (including retransmissions). *)
let bytes_sent_per_subflow t =
  List.map
    (fun m ->
      ( m.Path_manager.spec.Path_manager.path_name,
        m.Path_manager.subflow.Tcp_subflow.bytes_sent ))
    t.paths
