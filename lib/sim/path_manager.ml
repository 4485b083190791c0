(** The path manager building block (paper §2.1): decides on the
    creation and removal of subflows.

    Paths are declared as {!path_spec}s (a data-direction link and an
    ack-direction link plus MPTCP attributes); the full-mesh manager
    establishes one subflow per path at the configured times — subflow
    establishment takes a handshake round-trip, so, as the paper notes,
    the path manager operates on relaxed time constraints compared to the
    scheduler. {!attach} is the one way a subflow is built, for the
    initial paths and for paths that arrive later (e.g. the WiFi/LTE
    handover of §5.2); {!fail_subflow} schedules a path's failure. *)

type path_spec = {
  path_name : string;
  up : Link.params;  (** sender -> receiver direction *)
  down : Link.params;  (** receiver -> sender (acks) *)
  backup : bool;
  establish_at : float;  (** when the manager starts the handshake *)
  links : (Link.t * Link.t) option;
      (** the (data, ack) links the path runs over when the network owns
          them — several connections handed the same data link compete
          for its bottleneck; [None]: {!attach} builds a private pair
          from [up] and [down] *)
}

let path ?(name = "path") ?(backup = false) ?(establish_at = 0.0)
    ?(down = Link.default_params) up =
  { path_name = name; up; down; backup; establish_at; links = None }

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

(* A private link pair for [spec], one RNG split per direction (data
   first). *)
let link_pair ~clock ~rng spec =
  let data_link = Link.create ~params:spec.up ~clock ~rng:(Rng.split rng) () in
  let ack_link = Link.create ~params:spec.down ~clock ~rng:(Rng.split rng) () in
  (data_link, ack_link)

(** Create subflow [id] over [spec]'s links (a private pair drawn from
    [rng] when the spec names none), attach it to [meta] and start its
    handshake at [spec.establish_at]. *)
let attach ~clock ~rng ~(meta : Meta_socket.t) ?(min_rto = 0.2)
    ?(delivery_mode = Tcp_subflow.Immediate) ?entry_pool ~id spec : managed =
  let data_link, ack_link =
    match spec.links with
    | Some (data_link, ack_link) ->
        if data_link.Link.clock != clock || ack_link.Link.clock != clock then
          invalid_arg
            ("Path_manager.attach: path " ^ spec.path_name
           ^ " runs over links of another clock");
        (data_link, ack_link)
    | None -> link_pair ~clock ~rng spec
  in
  let subflow =
    Tcp_subflow.create ~id ~clock ~data_link ~ack_link
      ~mss:meta.Meta_socket.mss ~is_backup:spec.backup ~min_rto ~delivery_mode
      ?entry_pool ()
  in
  Meta_socket.attach meta subflow;
  Tcp_subflow.establish ~at:spec.establish_at subflow;
  { spec; subflow; data_link; ack_link }

(** Schedule a subflow failure (connection break) at time [at]: packets
    in flight or buffered on it are reported to RQ. *)
let fail_subflow ~clock (m : managed) ~at =
  Eventq.post clock ~at (fun () -> Tcp_subflow.fail m.subflow)
