(** The path manager building block (paper §2.1): decides on the
    creation and removal of subflows.

    Paths are declared as {!path_spec}s (a data-direction link and an
    ack-direction link plus MPTCP attributes); the full-mesh manager
    establishes one subflow per path at the configured times — subflow
    establishment takes a handshake round-trip, so, as the paper notes,
    the path manager operates on relaxed time constraints compared to the
    scheduler. Dynamic arrival and failure of paths (e.g. the WiFi/LTE
    handover of §5.2) are exposed as {!add_path} and {!fail_subflow}. *)

type path_spec = {
  path_name : string;
  up : Link.params;  (** sender -> receiver direction *)
  down : Link.params;  (** receiver -> sender (acks) *)
  backup : bool;
  establish_at : float;  (** when the manager starts the handshake *)
}

let path ?(name = "path") ?(backup = false) ?(establish_at = 0.0)
    ?(down = Link.default_params) up =
  { path_name = name; up; down; backup; establish_at }

(** A symmetric path: acks travel back over the same delay (unconstrained
    bandwidth, no loss — ack loss is not modeled). *)
let symmetric ?name ?backup ?establish_at (up : Link.params) =
  path ?name ?backup ?establish_at
    ~down:{ up with Link.loss = 0.0; bandwidth = 1e9 }
    up

type managed = {
  spec : path_spec;
  subflow : Tcp_subflow.t;
  data_link : Link.t;
  ack_link : Link.t;
}

(** Attach one subflow over pre-built links (used to share a bottleneck
    link between subflows of different connections, e.g. for
    TCP-friendliness experiments). *)
let attach_with_links ~clock ~(meta : Meta_socket.t) ?(min_rto = 0.2)
    ?(delivery_mode = Tcp_subflow.Immediate) ?entry_pool ~id ~data_link
    ~ack_link spec : managed =
  let subflow =
    Tcp_subflow.create ~id ~clock ~data_link ~ack_link
      ~mss:meta.Meta_socket.mss ~is_backup:spec.backup ~min_rto ~delivery_mode
      ?entry_pool ()
  in
  Meta_socket.attach meta subflow;
  Tcp_subflow.establish ~at:spec.establish_at subflow;
  { spec; subflow; data_link; ack_link }

(** Create and attach one subflow per path. *)
let establish_all ~clock ~rng ~(meta : Meta_socket.t) ?(min_rto = 0.2)
    ?(delivery_mode = Tcp_subflow.Immediate) (paths : path_spec list) :
    managed list =
  List.mapi
    (fun i spec ->
      let data_link = Link.create ~params:spec.up ~clock ~rng:(Rng.split rng) () in
      let ack_link = Link.create ~params:spec.down ~clock ~rng:(Rng.split rng) () in
      attach_with_links ~clock ~meta ~min_rto ~delivery_mode ~id:i ~data_link
        ~ack_link spec)
    paths

(** Bring up an additional path at [at] (handover target). *)
let add_path ~clock ~rng ~(meta : Meta_socket.t) ?(min_rto = 0.2)
    ?(delivery_mode = Tcp_subflow.Immediate) ~id ~at (spec : path_spec) : managed
    =
  let data_link = Link.create ~params:spec.up ~clock ~rng:(Rng.split rng) () in
  let ack_link = Link.create ~params:spec.down ~clock ~rng:(Rng.split rng) () in
  let subflow =
    Tcp_subflow.create ~id ~clock ~data_link ~ack_link ~mss:meta.Meta_socket.mss
      ~is_backup:spec.backup ~min_rto ~delivery_mode ()
  in
  Meta_socket.attach meta subflow;
  Tcp_subflow.establish ~at subflow;
  { spec; subflow; data_link; ack_link }

(** Schedule a subflow failure (connection break) at time [at]: packets
    in flight or buffered on it are reported to RQ. *)
let fail_subflow ~clock (m : managed) ~at =
  Eventq.post clock ~at (fun () -> Tcp_subflow.fail m.subflow)

(** Schedule re-establishment of a failed subflow at [at] (the reverse of
    {!fail_subflow}; the handshake takes its usual round-trip). *)
let reestablish_subflow (m : managed) ~at =
  Tcp_subflow.reestablish ~at m.subflow
