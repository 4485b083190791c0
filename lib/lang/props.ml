(** Subflow and packet properties exposed by the programming model.

    These mirror the Linux-kernel state the paper's runtime reads: RTT
    estimates maintained by the subflow, the congestion window maintained
    by the congestion-control block, in-flight accounting, and the
    TSQ/loss state the default scheduler consults (paper §3.3 and
    footnote 2). All properties are integers or booleans and are
    immutable during a single scheduler execution. *)

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

let subflow_prop_of_name = function
  | "RTT" -> Some Rtt
  | "RTT_AVG" -> Some Rtt_avg
  | "RTT_VAR" -> Some Rtt_var
  | "CWND" -> Some Cwnd
  | "SSTHRESH" -> Some Ssthresh
  | "SKBS_IN_FLIGHT" -> Some Skbs_in_flight
  | "QUEUED" -> Some Queued
  | "LOST_SKBS" -> Some Lost_skbs
  | "IS_BACKUP" -> Some Is_backup
  | "TSQ_THROTTLED" -> Some Tsq_throttled
  | "LOSSY" -> Some Lossy
  | "ID" -> Some Sbf_id
  | "RTO" -> Some Rto
  | "THROUGHPUT" -> Some Throughput
  | "MSS" -> Some Mss
  | _ -> None

let packet_prop_of_name = function
  | "SIZE" -> Some Size
  | "SEQ" -> Some Seq
  | "SENT_COUNT" -> Some Sent_count
  | "PROP1" -> Some (User_prop 0)
  | "PROP2" -> Some (User_prop 1)
  | "PROP3" -> Some (User_prop 2)
  | "PROP4" -> Some (User_prop 3)
  | _ -> None

let subflow_prop_name = function
  | Rtt -> "RTT"
  | Rtt_avg -> "RTT_AVG"
  | Rtt_var -> "RTT_VAR"
  | Cwnd -> "CWND"
  | Ssthresh -> "SSTHRESH"
  | Skbs_in_flight -> "SKBS_IN_FLIGHT"
  | Queued -> "QUEUED"
  | Lost_skbs -> "LOST_SKBS"
  | Is_backup -> "IS_BACKUP"
  | Tsq_throttled -> "TSQ_THROTTLED"
  | Lossy -> "LOSSY"
  | Sbf_id -> "ID"
  | Rto -> "RTO"
  | Throughput -> "THROUGHPUT"
  | Mss -> "MSS"

let packet_prop_name = function
  | Size -> "SIZE"
  | Seq -> "SEQ"
  | Sent_count -> "SENT_COUNT"
  | User_prop i -> "PROP" ^ string_of_int (i + 1)

(* Read sets: bit [i] of a mask stands for the [i]-th subflow property
   in declaration order, and bit 15 for the receive window that
   [HAS_WINDOW_FOR] consults. *)
type read_set = int

let read_bit = function
  | Rtt -> 1
  | Rtt_avg -> 1 lsl 1
  | Rtt_var -> 1 lsl 2
  | Cwnd -> 1 lsl 3
  | Ssthresh -> 1 lsl 4
  | Skbs_in_flight -> 1 lsl 5
  | Queued -> 1 lsl 6
  | Lost_skbs -> 1 lsl 7
  | Is_backup -> 1 lsl 8
  | Tsq_throttled -> 1 lsl 9
  | Lossy -> 1 lsl 10
  | Sbf_id -> 1 lsl 11
  | Rto -> 1 lsl 12
  | Throughput -> 1 lsl 13
  | Mss -> 1 lsl 14

let receive_window_bit = 1 lsl 15

let all_reads = (1 lsl 16) - 1

(** Type of a subflow property in the programming model. *)
let subflow_prop_type = function
  | Is_backup | Tsq_throttled | Lossy -> Ty.Bool
  | Rtt | Rtt_avg | Rtt_var | Cwnd | Ssthresh | Skbs_in_flight | Queued
  | Lost_skbs | Sbf_id | Rto | Throughput | Mss ->
      Ty.Int

(** All packet properties are integers. *)
let packet_prop_type (_ : packet_prop) = Ty.Int

(** Number of application-settable registers per scheduler instance
    ([R1] .. [R6]). The bound keeps per-connection state small, as in the
    paper's runtime (328 bytes per instantiation). *)
let num_registers = 6

(** Number of user-settable integer properties per packet. *)
let num_user_props = 4
