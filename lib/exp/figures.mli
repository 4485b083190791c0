(** The worlds of the paper experiments [bench/main.exe] reproduces, one
    definition each: paths, connection, workload, run horizon and the
    measured values. A function takes only the inputs its experiment
    varies; seeds, rates, sizes and horizons are constants. The bench
    prints the tables and the examples narrate single rows, both through
    these functions. Schedulers are zoo names ({!Schedulers.Specs}),
    loaded into the registry at the first call. *)

open Mptcp_sim

type stream = {
  lte_share : float;  (** percent of the wire bytes sent on LTE *)
  stalled_s : int;  (** seconds in (1.5, 15] below 90% of the target *)
  delivered : int;  (** bytes delivered in order *)
  rates : (float * float array) list;  (** per-second WiFi/LTE goodput *)
}

val stream : scheduler:string -> lte_backup:bool -> stream
(** Figs. 1/13: a CBR stream of 1 MB/s, 4 MB/s from 6 s (signalled in
    R1), over {!Scenarios.wifi_lte} with WiFi fluctuating in 2.5–5 MB/s. *)

val snapshot_world : unit -> Connection.t
(** [bench snapshot]'s world: the stock default scheduler on a
    2-subflow bulk connection (RTT ratio 2, 2% loss), run to one second
    into a 4 MB transfer. *)

type bulk = {
  finished_at : float option;  (** last in-order delivery, if complete *)
  executions : int;  (** scheduler executions *)
}

val bulk : engine:string -> compressed:bool -> bulk
(** Fig. 9: a 4 MB transfer written at 0.1 s over
    {!Scenarios.mininet_two_subflows} by the default scheduler on its own
    instance of [engine], with or without compressed executions. *)

type flows = {
  fct : float;  (** mean flow completion time, seconds *)
  overhead : float;  (** mean wire bytes per flow byte *)
  completed : int;
  reps : int;  (** flows measured *)
}

val redundancy_flows : scheduler:string -> size:int -> flows
(** Fig. 10b: ten [size]-byte flows over two subflows, 2% loss, RTT
    ratio 2. *)

val short_flows :
  scheduler:string -> rtt_ratio:float -> signal_end:bool -> flows
(** Fig. 12: twelve 40 kB flows over two subflows (20 ms base RTT);
    [signal_end] sets R2 := 1 after each write. *)

val compensate_flows : newest:bool -> rtt_ratio:float -> flows
(** The §5.3 ablation on Fig. 12's world: Compensating retransmits the
    oldest or ([newest]) the newest unsent packet. *)

val window_throughput :
  single_path:bool -> scheduler:string -> bursty:bool -> float
(** Fig. 10c: bytes/s delivered in a 10 s window of 4 MB/s CBR or on/off
    load over the two Mininet subflows (or the first only). *)

val page_load :
  scheduler:string -> wifi_extra_delay:float -> Apps.Http2.load_result
(** Fig. 14: the optimized page over WiFi (+[wifi_extra_delay] s one
    way) and LTE, a backup path for ["http2_aware"] only. Raises
    [Failure] if the load does not complete. *)

val handover_gap : scheduler:string -> float * bool
(** §5.2: a 2 MB/s stream whose WiFi blacks out at 1 s: the largest gap
    between in-order deliveries, and whether all was delivered. *)

val target_latency : scheduler:string -> float * int
(** §5.4: requests every 50 ms with a 30 ms tolerable RTT, WiFi at 80 ms
    from 2 s to 4 s: p95 request latency and LTE bytes. *)

val dash_deadlines : scheduler:string -> Apps.Dash.outcome
(** §5.4: sixteen 400 kB chunks every 500 ms, WiFi at 0.3 MB/s twice. *)

val receiver_latency :
  delivery_mode:Tcp_subflow.delivery_mode ->
  ordering:Meta_socket.ordering ->
  float * float
(** §4.2: mean and p95 delivery latency of a thin flow over two lossy
    subflows with RTT ratio 4. *)

val receive_window_fct : scheduler:string -> rcv_buffer:int -> float option
(** §3.4: completion time of a 600 kB write over subflows with RTT ratio
    6 and a [rcv_buffer]-byte receive buffer. *)

val proactive_flows : scheduler:string -> rtt_ratio:float -> flows
(** Table 2: Fig. 12's flows with R1 = bytes remaining kept current for
    ["flow_size_aware"] (end signalled for ["compensating"]); means over
    completed flows. *)

val datacenter_fcts : scheduler:string -> float list
(** §2.2: completion times of forty 100 kB flows over two 1%-loss
    data-center paths, completed flows only. *)

val friendliness : cc:Congestion.policy -> int * int
(** §2.1: bytes delivered by a 2-subflow MPTCP connection with [cc] and
    a single-path Reno flow sharing one bottleneck for 40 s. *)
