(* WiFi -> LTE handover (paper §5.2), reproduced with the fault-injection
   subsystem: a steady 2 MB/s stream runs over the WiFi/LTE setup, the
   WiFi path goes dark at t=3 s and comes back at t=8 s.

   The default minimum-RTT scheduler keeps trusting the (established but
   dead) WiFi subflow and never touches the LTE backup, so delivery
   stalls for the whole outage. The handover-aware scheduler of §5.2 —
   pointed at the LTE subflow via register R1 by the "connection
   manager" — reinjects everything WiFi was carrying onto LTE and keeps
   the stream moving.

   The flight recorder observes both runs: a metrics collector samples
   each subflow 4x per second and the §5.2 goodput time-series is
   re-derived from those samples alone, cross-checked against the
   delivery-callback ground truth; the handover run also records a
   structured event trace, asserted to contain the fault transitions and
   the handover scheduler's decisions. Pass [--trace FILE] and
   [--metrics FILE] to write the JSONL trace and the metrics CSV — the
   raw material of the §5.2 handover figure.

   The run is self-checking: it asserts that default stalls, that the
   handover scheduler keeps outage goodput within 2x of the pre-fault
   goodput, that LTE takes over within roughly one RTO of the Link_down,
   and that the metrics-derived time-series agrees with ground truth.
   Deterministic under the fixed seed.

   Run with: dune exec examples/handover.exe -- [--trace t.jsonl]
   [--metrics m.csv] *)

open Mptcp_sim
module Trace = Mptcp_obs.Trace
module Metrics = Mptcp_obs.Metrics
module Recorder = Mptcp_obs.Recorder

let seed = 7
let outage_start = 3.0
let outage_end = 8.0
let cbr_rate = 2_000_000.0 (* bytes per second *)
let sample_interval = 0.25
let horizon = 12.0

(* One run: stream over WiFi+LTE, WiFi dark in [3, 8). Returns
   (pre-fault goodput, outage goodput, takeover latency, checker,
   metrics collector). *)
let run ?trace_sink ~with_handover () =
  let paths = Mptcp_exp.Scenarios.wifi_lte () in
  let conn = Connection.create ~seed ~paths () in
  let sock = Connection.sock conn in
  Progmp_runtime.Api.set_scheduler sock "default";

  (* Goodput recorder: bytes the application received in the window
     before the fault and during it, plus the first post-fault delivery
     (installed before the invariant checker and the flight recorder,
     which chain after it). *)
  let pre = ref 0 and during = ref 0 in
  let first_after_fault = ref None in
  conn.Connection.meta.Meta_socket.on_deliver <-
    (fun ~seq:_ ~size ~time ->
      if time >= 1.0 && time < outage_start then pre := !pre + size
      else if time >= outage_start && time < outage_end then begin
        during := !during + size;
        if !first_after_fault = None then first_after_fault := Some time
      end);
  let checker = Invariants.attach conn in
  let metrics = Metrics.attach ~interval:sample_interval ~until:horizon conn in
  let recorder = Option.map (fun sink -> Recorder.attach sink conn) trace_sink in

  (* The fault: WiFi (data and ack direction) dark for five seconds. *)
  Faults.apply conn
    [
      Faults.step ~at:outage_start "wifi" Faults.Link_down;
      Faults.step ~at:outage_end "wifi" Faults.Link_up;
    ];

  (* The §5.2 connection manager: on the (predicted) handover it points
     the handover scheduler at the LTE subflow via R1, and reverts once
     WiFi is back. *)
  if with_handover then begin
    Connection.at conn ~time:outage_start (fun () ->
        Progmp_runtime.Api.set_register sock 0
          (Connection.subflow conn 1).Tcp_subflow.id;
        Progmp_runtime.Api.set_scheduler sock "handover");
    Connection.at conn ~time:outage_end (fun () ->
        Progmp_runtime.Api.set_scheduler sock "default")
  end;

  Apps.Workload.cbr conn ~start:0.2 ~stop:10.0 ~interval:0.1
    ~rate:(fun _ -> cbr_rate);
  Connection.run ~until:horizon conn;
  Option.iter Recorder.detach recorder;

  let pre_rate = float_of_int !pre /. (outage_start -. 1.0) in
  let during_rate = float_of_int !during /. (outage_end -. outage_start) in
  let takeover =
    match !first_after_fault with
    | Some t -> t -. outage_start
    | None -> infinity
  in
  (pre_rate, during_rate, takeover, checker, metrics)

(* The §5.2 figure data, re-derived from the sampled time-series alone:
   cumulative delivered bytes at the last sample before [t]. *)
let delivered_at samples t =
  List.fold_left
    (fun acc (s : Metrics.sample) ->
      if s.Metrics.time <= t +. 1e-9 then s.Metrics.delivered_bytes else acc)
    0 samples

let metric_rate samples ~from ~till =
  float_of_int (delivered_at samples till - delivered_at samples from)
  /. (till -. from)

let within_pct pct a b = Float.abs (a -. b) <= pct /. 100.0 *. Float.max a b

let () =
  let trace_file = ref None and metrics_file = ref None in
  Arg.parse
    [
      ( "--trace",
        Arg.String (fun f -> trace_file := Some f),
        "FILE write the handover run's event trace as JSON Lines" );
      ( "--metrics",
        Arg.String (fun f -> metrics_file := Some f),
        "FILE write the handover run's per-subflow metrics as CSV" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "handover [--trace FILE] [--metrics FILE]";
  ignore (Schedulers.Specs.load_all ());

  (* The handover run always records into memory (for the self-checks);
     --trace adds a JSONL file sink alongside. *)
  let mem_sink, trace_events = Trace.memory () in
  let file_sink =
    Option.map (fun f -> (open_out f, Trace.jsonl)) !trace_file
  in
  let sink =
    match file_sink with
    | None -> mem_sink
    | Some (oc, mk) -> Trace.tee [ mem_sink; mk oc ]
  in

  let pre_d, during_d, _, check_d, _ = run ~with_handover:false () in
  let pre_h, during_h, takeover_h, check_h, metrics_h =
    run ~trace_sink:sink ~with_handover:true ()
  in
  Option.iter (fun (oc, _) -> close_out oc) file_sink;
  Option.iter
    (fun f ->
      let oc = open_out f in
      Metrics.to_csv oc metrics_h;
      close_out oc)
    !metrics_file;

  Fmt.pr "WiFi outage %.0f..%.0f s, %.1f MB/s stream (seed %d)@."
    outage_start outage_end (cbr_rate /. 1e6) seed;
  Fmt.pr "default  : %.2f MB/s before fault, %.2f MB/s during outage@."
    (pre_d /. 1e6) (during_d /. 1e6);
  Fmt.pr "handover : %.2f MB/s before fault, %.2f MB/s during outage, LTE \
          takeover after %.0f ms@."
    (pre_h /. 1e6) (during_h /. 1e6) (takeover_h *. 1e3);

  (* The figure time-series, from the collector alone. *)
  let samples = Metrics.to_list metrics_h in
  let m_pre = metric_rate samples ~from:1.0 ~till:outage_start in
  let m_during = metric_rate samples ~from:outage_start ~till:outage_end in
  Fmt.pr "metrics  : %.2f MB/s before fault, %.2f MB/s during outage (%d \
          samples, %d events traced)@."
    (m_pre /. 1e6) (m_during /. 1e6) (List.length samples)
    (List.length (trace_events ()));

  (* Self-check: the three §5.2 claims, the invariants, and agreement
     between the flight recorder's view and ground truth. *)
  let failures = ref [] in
  let check name cond = if not cond then failures := name :: !failures in
  check "default scheduler should stall during the outage"
    (during_d < 0.1 *. pre_d);
  check "handover goodput should stay within 2x of pre-fault goodput"
    (during_h >= pre_h /. 2.0);
  check "LTE should take over within ~1 RTO (1 s) of Link_down"
    (takeover_h <= 1.0);
  check "invariants must hold for the default run" (Invariants.ok check_d);
  check "invariants must hold for the handover run" (Invariants.ok check_h);
  check "metrics-derived pre-fault goodput should match ground truth"
    (within_pct 10.0 m_pre pre_h);
  check "metrics-derived outage goodput should match ground truth"
    (within_pct 10.0 m_during during_h);
  let events = List.map snd (trace_events ()) in
  let has p = List.exists p events in
  check "trace should record the WiFi outage fault"
    (has (function
      | Trace.Fault { path = "wifi"; fault = "down" } -> true
      | _ -> false));
  check "trace should record the WiFi recovery fault"
    (has (function
      | Trace.Fault { path = "wifi"; fault = "up" } -> true
      | _ -> false));
  check "trace should record handover-scheduler decisions"
    (has (function
      | Trace.Sched_invoke { scheduler = "handover"; _ } -> true
      | _ -> false));
  check "trace should record subflow establishment"
    (has (function Trace.Subflow_up _ -> true | _ -> false));
  check "trace should record data-level deliveries"
    (has (function Trace.Deliver _ -> true | _ -> false));

  List.iter
    (fun c ->
      match Invariants.report c with
      | Some r -> Fmt.epr "%s@." r
      | None -> ())
    [ check_d; check_h ];
  match !failures with
  | [] -> Fmt.pr "handover experiment: ok@."
  | fs ->
      List.iter (Fmt.epr "FAIL: %s@.") (List.rev fs);
      exit 1
