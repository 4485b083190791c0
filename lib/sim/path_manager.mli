(** The path manager building block (paper §2.1): creation and removal
    of subflows over declared paths, including dynamic arrival and
    failure (the WiFi/LTE handover of §5.2). *)

type path_spec = {
  path_name : string;
  up : Link.params;  (** sender -> receiver direction *)
  down : Link.params;  (** receiver -> sender (acks) *)
  backup : bool;
  establish_at : float;  (** when the manager starts the handshake *)
  links : (Link.t * Link.t) option;
      (** the (data, ack) links the path runs over when the network owns
          them — several connections handed the same data link compete
          for its bottleneck (§2.1 TCP-friendliness experiments);
          [None]: {!attach} builds a private pair from [up] and [down] *)
}

val path :
  ?name:string ->
  ?backup:bool ->
  ?establish_at:float ->
  ?down:Link.params ->
  Link.params ->
  path_spec

val symmetric :
  ?name:string -> ?backup:bool -> ?establish_at:float -> Link.params -> path_spec
(** Acks travel back over the same delay, unconstrained and lossless. *)

type managed = {
  spec : path_spec;
  subflow : Tcp_subflow.t;
  data_link : Link.t;
  ack_link : Link.t;
}

val attach :
  clock:Eventq.t ->
  rng:Rng.t ->
  meta:Meta_socket.t ->
  ?min_rto:float ->
  ?delivery_mode:Tcp_subflow.delivery_mode ->
  ?entry_pool:Tcp_subflow.entry_pool ->
  id:int ->
  path_spec ->
  managed
(** The one way a subflow is built: subflow [id] over the spec's
    [links], or over a private link pair created from [up] and [down]
    with two splits of [rng] (data link first); attached to [meta], its
    handshake starting at the spec's [establish_at].
    @raise Invalid_argument when the spec's links run on another
    clock. *)

val fail_subflow : clock:Eventq.t -> managed -> at:float -> unit
(** Schedule a clean subflow failure: in-flight and buffered packets are
    reported upward for reinjection. *)
