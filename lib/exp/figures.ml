(* The paper experiments' worlds; see figures.mli. *)

open Mptcp_sim
module Api = Progmp_runtime.Api
module Scheduler = Progmp_runtime.Scheduler

(* As Specs.compensating, but retransmits the newest (highest data seq)
   unsent packet first instead of the oldest — the paper's TOP vs FIRST
   variation (§5.3). *)
let compensating_newest =
  {|
VAR open = SUBFLOWS.FILTER(sbf =>
  sbf.CWND > sbf.SKBS_IN_FLIGHT + sbf.QUEUED);
IF (!Q.EMPTY) {
  VAR sbf = open.MIN(m => m.RTT);
  IF (sbf != NULL) { sbf.PUSH(Q.POP()); }
} ELSE {
  IF (R2 == 1) {
    FOREACH (VAR c IN SUBFLOWS) {
      VAR skb = QU.FILTER(u => !u.SENT_ON(c)).MAX(x => x.SEQ);
      IF (skb != NULL) { c.PUSH(skb); }
    }
  }
}
|}

(* The scheduler zoo, plus the ablation's variant, loaded into the
   registry once per process. *)
let zoo =
  lazy
    (ignore (Schedulers.Specs.load_all ());
     Api.load_scheduler compensating_newest ~name:"compensating_newest")

(* A connection over [paths] running the registry scheduler [scheduler]. *)
let conn_with ?compressed ?delivery_mode ?ordering ?rcv_buffer ?min_rto
    ~scheduler ~seed paths =
  Lazy.force zoo;
  let conn =
    Connection.create ~seed ?compressed ?delivery_mode ?ordering ?rcv_buffer
      ?min_rto ~paths ()
  in
  Api.set_scheduler (Connection.sock conn) scheduler;
  conn

(* When the last byte written so far was delivered in order, if it
   was. *)
let finished conn =
  let meta = conn.Connection.meta in
  Meta_socket.fct meta ~first:0 ~last:(meta.Meta_socket.next_seq - 1)

type stream = {
  lte_share : float;
  stalled_s : int;
  delivered : int;
  rates : (float * float array) list;
}

let stream_rate t = if t < 6.0 then 1_000_000.0 else 4_000_000.0

let stream ~scheduler ~lte_backup =
  let seed = 7 in
  let conn = conn_with ~scheduler ~seed (Scenarios.wifi_lte ~lte_backup ()) in
  Apps.Workload.cbr ~signal_register:0 conn ~start:0.5 ~stop:15.0
    ~interval:0.1 ~rate:stream_rate;
  Scenarios.fluctuate_wifi conn
    ~rng:(Rng.create (seed + 1))
    ~until:15.0 ~low:2_500_000.0 ~high:5_000_000.0 ();
  let interval = 1.0 in
  let metrics = Mptcp_obs.Metrics.attach conn ~interval ~until:15.0 in
  Connection.run ~until:25.0 conn;
  (* one row per tick: its time, per-subflow goodputs, delivered bytes *)
  let ticks =
    Mptcp_obs.Metrics.fold metrics
      (fun rows (s : Mptcp_obs.Metrics.sample) ->
        match rows with
        | (t, rates, d) :: rest when t = s.time ->
            (t, s.goodput_bps :: rates, d) :: rest
        | _ -> (s.time, [ s.goodput_bps ], s.delivered_bytes) :: rows)
      []
    |> List.rev_map (fun (t, rates, d) ->
           (t, Array.of_list (List.rev rates), d))
  in
  let wifi = Connection.subflow conn 0 and lte = Connection.subflow conn 1 in
  let total = wifi.Tcp_subflow.bytes_sent + lte.Tcp_subflow.bytes_sent in
  let stalled_s, _ =
    List.fold_left
      (fun (n, prev) (t, _, d) ->
        (* in-order delivery rate over the tick *)
        let rate = float_of_int (d - prev) /. interval in
        ((if t > 1.5 && rate < 0.9 *. stream_rate t then n + 1 else n), d))
      (0, 0) ticks
  in
  {
    lte_share =
      100.0 *. float_of_int lte.Tcp_subflow.bytes_sent
      /. float_of_int (max 1 total);
    stalled_s;
    delivered = Connection.delivered_bytes conn;
    rates = List.map (fun (t, rates, _) -> (t, rates)) ticks;
  }

(** [bench snapshot]'s world: the stock default scheduler on a
    2-subflow bulk connection (RTT ratio 2, 2% loss), run to one second
    into a 4 MB transfer, when both subflows are up and carrying
    data. *)
let snapshot_world () =
  Lazy.force zoo;
  let conn =
    Connection.create ~seed:1
      ~paths:(Scenarios.mininet_two_subflows ~rtt_ratio:2.0 ~loss:0.02 ())
      ()
  in
  ignore (Connection.write conn 4_000_000);
  Connection.run ~until:1.0 conn;
  conn

type bulk = { finished_at : float option; executions : int }

let bulk ~engine ~compressed =
  Lazy.force zoo;
  (* the stock default scheduler, on its own instance of [engine] *)
  let scheduler =
    Scheduler.instantiate_private (Option.get (Scheduler.find "default")) ~engine
  in
  let conn =
    Connection.create ~seed:5 ~compressed ~scheduler
      ~paths:(Scenarios.mininet_two_subflows ())
      ()
  in
  Apps.Workload.bulk conn ~at:0.1 ~bytes:4_000_000;
  Connection.run ~until:60.0 conn;
  {
    finished_at = finished conn;
    executions = conn.Connection.meta.Meta_socket.sched_executions;
  }

type flows = { fct : float; overhead : float; completed : int; reps : int }

let measure_flows ?(prepare = ignore) ?before_write ?after_write ~scheduler
    ~paths ~size ~reps () =
  let mk_conn ~seed =
    let conn = conn_with ~scheduler ~seed (paths ()) in
    prepare conn;
    conn
  in
  let fct, wire, completed =
    Apps.Workload.measure_flows ?before_write ?after_write ~mk_conn ~size
      ~reps ()
  in
  { fct; overhead = wire /. float_of_int size; completed; reps }

let redundancy_flows ~scheduler ~size =
  measure_flows ~scheduler ~size ~reps:10
    ~paths:(fun () ->
      Scenarios.mininet_two_subflows ~rtt_ratio:2.0 ~loss:0.02 ())
    ()

let short_flows ~scheduler ~rtt_ratio ~signal_end =
  let after_write conn =
    (* the flow ends with this write: signal it (R2 := 1) *)
    if signal_end then Api.set_register (Connection.sock conn) 1 1
  in
  measure_flows ~after_write ~scheduler ~size:40_000 ~reps:12
    ~paths:(fun () ->
      Scenarios.mininet_two_subflows ~rtt_ratio ~base_rtt:0.02 ())
    ()

let compensate_flows ~newest ~rtt_ratio =
  short_flows
    ~scheduler:(if newest then "compensating_newest" else "compensating")
    ~rtt_ratio ~signal_end:true

let window_throughput ~single_path ~scheduler ~bursty =
  let paths = Scenarios.mininet_two_subflows () in
  let paths = if single_path then [ List.hd paths ] else paths in
  let conn = conn_with ~scheduler ~seed:11 paths in
  (* offered load well above the 2 x 1.25 MB/s aggregate capacity *)
  if bursty then
    Apps.Workload.bursty conn ~rng:(Rng.create 13) ~start:0.2 ~stop:10.2
      ~burst_bytes:150_000 ~mean_gap:0.04
  else
    Apps.Workload.cbr conn ~start:0.2 ~stop:10.2 ~interval:0.05
      ~rate:(fun _ -> 4_000_000.0);
  (* throughput = bytes delivered within the 10 s load window *)
  let window_bytes = ref 0 in
  Connection.at conn ~time:10.2 (fun () ->
      window_bytes := Connection.delivered_bytes conn);
  Connection.run ~until:11.0 conn;
  float_of_int !window_bytes /. 10.0

let page_load ~scheduler ~wifi_extra_delay =
  Lazy.force zoo;
  let page = Apps.Http2.optimized_page in
  (* the default scheduler knows no preferences: for its baseline, LTE
     is a regular subflow (the paper's complaint is precisely that it
     then carries bulky below-the-fold content); the HTTP/2-aware
     scheduler reads the backup flag as the non-preferred marker *)
  let paths =
    Scenarios.wifi_lte ~wifi_extra_delay
      ~lte_backup:(scheduler = "http2_aware") ()
  in
  let conn = Connection.create ~seed:21 ~paths () in
  if scheduler = "http2_aware" then Apps.Webserver.prepare conn page;
  match Apps.Webserver.serve_with ~scheduler_name:scheduler conn page with
  | Some r -> r
  | None -> failwith "page load incomplete"

let handover_gap ~scheduler =
  let conn =
    conn_with ~scheduler ~seed:3 (Scenarios.wifi_lte ~lte_backup:false ())
  in
  (* proactive handover (cf. [18]): the device senses the WiFi decay and
     flags LTE (id 1) as the target shortly before the blackout *)
  if scheduler = "handover" then
    Connection.at conn ~time:0.9 (fun () ->
        Api.set_register (Connection.sock conn) 0 1;
        Connection.notify_scheduler conn);
  Apps.Workload.cbr conn ~start:0.2 ~stop:3.0 ~interval:0.05 ~rate:(fun _ ->
      2_000_000.0);
  (* WiFi goes silent at t = 1.0 (blackout: every packet is lost, no
     clean failure signal); the connection break is detected at 1.5 *)
  Connection.at conn ~time:1.0 (fun () ->
      Link.set_loss (Connection.data_link conn 0) 1.0);
  Connection.fail_path conn (List.hd conn.Connection.paths) ~at:1.5;
  (* largest gap between consecutive in-order deliveries around the
     handover (the first in-window delivery only seeds the clock) *)
  let last = ref nan and max_gap = ref 0.0 in
  conn.Connection.meta.Meta_socket.on_deliver <-
    (fun ~seq:_ ~size:_ ~time ->
      if time > 0.5 && time < 2.5 then begin
        if not (Float.is_nan !last) then
          max_gap := Float.max !max_gap (time -. !last);
        last := time
      end);
  Connection.run ~until:30.0 conn;
  (!max_gap, Meta_socket.all_delivered conn.Connection.meta)

(* Record each written segment's latency to its delivery. *)
let delivery_latencies conn =
  let latencies = ref [] in
  let pending = Hashtbl.create 64 in
  conn.Connection.meta.Meta_socket.on_deliver <-
    (fun ~seq ~size:_ ~time ->
      match Hashtbl.find_opt pending seq with
      | Some t0 -> latencies := (time -. t0) :: !latencies
      | None -> ());
  let rec write ~every ~until ~bytes t =
    if t < until then
      Connection.at conn ~time:t (fun () ->
          let seqs = Connection.write conn bytes in
          List.iter
            (fun s -> Hashtbl.replace pending s (Connection.now conn))
            seqs;
          write ~every ~until ~bytes (t +. every))
  in
  (write, latencies)

let target_latency ~scheduler =
  let conn = conn_with ~scheduler ~seed:17 (Scenarios.wifi_lte ()) in
  Api.set_register (Connection.sock conn) 0 30_000 (* tolerable RTT 30 ms *);
  (* WiFi RTT degrades in the middle of the run *)
  Connection.at conn ~time:2.0 (fun () ->
      Link.set_delay (Connection.data_link conn 0) 0.080);
  Connection.at conn ~time:4.0 (fun () ->
      Link.set_delay (Connection.data_link conn 0) 0.005);
  let write, latencies = delivery_latencies conn in
  write ~every:0.05 ~until:6.0 ~bytes:1448 0.3;
  Connection.run ~until:30.0 conn;
  let lte = Connection.subflow conn 1 in
  (Stats.percentile 0.95 !latencies, lte.Tcp_subflow.bytes_sent)

let dash_deadlines ~scheduler =
  let conn = conn_with ~scheduler ~seed:19 (Scenarios.wifi_lte ()) in
  (* two WiFi collapses to 0.3 MB/s *)
  List.iter
    (fun (t, bw) ->
      Connection.at conn ~time:t (fun () ->
          Link.set_bandwidth (Connection.data_link conn 0) bw))
    [
      (2.0, 300_000.0); (3.5, 5_000_000.0); (5.0, 300_000.0);
      (6.5, 5_000_000.0);
    ];
  let session =
    Apps.Dash.start ~period:0.5 ~count:16 ~chunk_bytes:(fun _ -> 400_000) conn
  in
  Connection.run ~until:60.0 conn;
  Apps.Dash.evaluate session

let receiver_latency ~delivery_mode ~ordering =
  (* the default scheduler reinjects suspected losses cross-subflow,
     which is what exposes the two-layer receiver's head-of-line delay *)
  let conn =
    conn_with ~delivery_mode ~ordering ~scheduler:"default" ~seed:29
      (Scenarios.mininet_two_subflows ~rtt_ratio:4.0 ~loss:0.03 ())
  in
  (* a thin periodic flow: the measured per-segment delivery latency
     then isolates loss/reordering stalls rather than bulk queueing *)
  let write, latencies = delivery_latencies conn in
  write ~every:0.05 ~until:10.0 ~bytes:1_000 0.2;
  Connection.run ~until:120.0 conn;
  (Stats.mean !latencies, Stats.percentile 0.95 !latencies)

let receive_window_fct ~scheduler ~rcv_buffer =
  let conn =
    conn_with ~rcv_buffer ~scheduler ~seed:4
      (Scenarios.mininet_two_subflows ~rtt_ratio:6.0 ~loss:0.01 ())
  in
  Connection.write_at conn ~time:0.1 600_000;
  Connection.run ~until:120.0 conn;
  Option.map (fun t -> t -. 0.1) (finished conn)

let proactive_flows ~scheduler ~rtt_ratio =
  let size = 40_000 in
  let set_register i v conn = Api.set_register (Connection.sock conn) i v in
  (* the application's control loop keeps R1 = bytes remaining *)
  let rec refresh conn t =
    if t < 10.0 then
      Connection.at conn ~time:t (fun () ->
          set_register 0 (max 0 (size - Connection.delivered_bytes conn)) conn;
          Connection.notify_scheduler conn;
          refresh conn (t +. 0.005))
  in
  measure_flows ~scheduler ~size ~reps:12
    ~prepare:(fun conn ->
      if scheduler = "flow_size_aware" then refresh conn 0.2)
    ~before_write:(set_register 0 size)
    ~after_write:(fun conn ->
      if scheduler = "compensating" then set_register 1 1 conn)
    ~paths:(fun () ->
      Scenarios.mininet_two_subflows ~rtt_ratio ~base_rtt:0.02 ())
    ()

let datacenter_fcts ~scheduler =
  List.filter_map
    (fun i ->
      let mk_conn () =
        (* data-center min RTO: 5 ms, still ~25x the 200 us RTT *)
        conn_with ~min_rto:0.005 ~scheduler
          ~seed:(3000 + (13 * i))
          (Scenarios.datacenter ~loss:0.01 ~n:2 ())
      in
      Option.map
        (fun r -> r.Apps.Workload.fct)
        (Apps.Workload.measure_flow ~at:0.05 ~mk_conn ~size:100_000 ()))
    (List.init 40 Fun.id)

let friendliness ~cc =
  Lazy.force zoo;
  let params =
    {
      Link.default_params with
      Link.bandwidth = 1_250_000.0;
      delay = 0.02;
      buffer_bytes = 128 * 1024;
      loss = 0.005;
    }
  in
  let clock = Eventq.create () in
  let rng = Rng.create 5 in
  let bottleneck = Link.create ~params ~clock ~rng () in
  let ack () =
    Link.create
      ~params:{ params with Link.bandwidth = 1e9; loss = 0.0 }
      ~clock ~rng:(Rng.split rng) ()
  in
  let spec name =
    {
      (Path_manager.symmetric ~name params) with
      Path_manager.links = Some (bottleneck, ack ());
    }
  in
  let mptcp =
    Connection.create ~seed:1 ~cc ~clock
      ~paths:(List.init 2 (fun i -> spec (Fmt.str "m%d" i)))
      ()
  in
  let single =
    Connection.create ~seed:2 ~cc:Congestion.Reno ~clock
      ~paths:[ spec "tcp" ]
      ()
  in
  List.iter
    (fun conn ->
      Apps.Workload.cbr conn ~start:0.2 ~stop:40.0 ~interval:0.05
        ~rate:(fun _ -> 1_600_000.0))
    [ mptcp; single ];
  ignore (Eventq.run ~until:40.0 clock);
  (Connection.delivered_bytes mptcp, Connection.delivered_bytes single)
