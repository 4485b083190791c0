(** Subflow and packet properties exposed by the programming model —
    the kernel state the paper's runtime reads (§3.3). All properties
    are integers or booleans, immutable during a scheduler execution.
    Times are microseconds, rates bytes/second, sizes bytes. *)

type subflow_prop =
  | Rtt  (** smoothed RTT, microseconds *)
  | Rtt_avg  (** long-run average RTT, microseconds *)
  | Rtt_var  (** RTT variance estimate, microseconds *)
  | Cwnd  (** congestion window, segments *)
  | Ssthresh  (** slow-start threshold, segments *)
  | Skbs_in_flight  (** segments sent on the subflow and not yet acked *)
  | Queued  (** segments assigned to the subflow but not yet on the wire *)
  | Lost_skbs  (** loss events observed on the subflow *)
  | Is_backup  (** the path manager flagged the subflow as backup *)
  | Tsq_throttled  (** TCP-small-queue condition holds *)
  | Lossy  (** subflow is in loss-recovery state *)
  | Sbf_id  (** stable numeric identifier *)
  | Rto  (** current retransmission timeout, microseconds *)
  | Throughput  (** cwnd-based throughput estimate, bytes/second *)
  | Mss  (** maximum segment size, bytes *)

type packet_prop =
  | Size  (** payload bytes *)
  | Seq  (** data (meta-level) sequence number *)
  | Sent_count  (** number of subflows the packet was pushed on *)
  | User_prop of int
      (** [PROP1] .. [PROP4]: per-packet scheduling intents set by the
          application through the extended API (paper §3.2) *)


val subflow_prop_of_name : string -> subflow_prop option

val packet_prop_of_name : string -> packet_prop option

val subflow_prop_name : subflow_prop -> string

val packet_prop_name : packet_prop -> string

val subflow_prop_type : subflow_prop -> Ty.t

val packet_prop_type : packet_prop -> Ty.t

(** {2 Read sets} *)

type read_set = int
(** The subflow state a program can observe, as a bitmask over the
    fields of a subflow snapshot: one bit per property, plus
    {!receive_window_bit}. A host that fills a snapshot may skip every
    field outside the set of the program it runs. *)

val read_bit : subflow_prop -> read_set
(** The bit of one property. *)

val receive_window_bit : read_set
(** The free receive window, read only by [HAS_WINDOW_FOR]. *)

val all_reads : read_set
(** Every field: the set of code that may read anything (a decision
    function written in OCaml). *)

val num_registers : int
(** Application-settable registers per scheduler instance (R1..R6). *)

val num_user_props : int
(** User-settable integer properties per packet (PROP1..PROP4). *)
