(** TCP subflow tests: congestion-control state machine, RTT estimation,
    retransmission (fast retransmit and RTO), TSQ, delivery modes, and
    subflow failure. Uses a bare subflow wired to simple callbacks (no
    meta socket). *)

open Mptcp_sim
open Progmp_runtime
open Helpers

type harness = {
  clock : Eventq.t;
  sbf : Tcp_subflow.t;
  delivered : Packet.t list ref;
  suspected : Packet.t list ref;
}

let make_harness ?(loss = 0.0) ?(bandwidth = 1e6) ?(delay = 0.01)
    ?(delivery_mode = Tcp_subflow.Immediate) () =
  let clock = Eventq.create () in
  let rng = Rng.create 42 in
  let params =
    { Link.default_params with Link.bandwidth; delay; loss; jitter = 0.0 }
  in
  let data_link = Link.create ~params ~clock ~rng () in
  let ack_link =
    Link.create ~params:{ params with Link.loss = 0.0 } ~clock ~rng:(Rng.split rng) ()
  in
  let sbf =
    Tcp_subflow.create ~id:0 ~clock ~data_link ~ack_link ~delivery_mode ()
  in
  let delivered = ref [] and suspected = ref [] in
  sbf.Tcp_subflow.on_meta_deliver <- (fun p -> delivered := p :: !delivered);
  sbf.Tcp_subflow.on_suspected_loss <- (fun p -> suspected := p :: !suspected);
  sbf.Tcp_subflow.is_data_acked <- (fun p -> p.Packet.acked);
  Tcp_subflow.establish ~at:0.0 sbf;
  { clock; sbf; delivered; suspected }

let send_n h n =
  for i = 0 to n - 1 do
    Tcp_subflow.send h.sbf (Packet.create ~seq:i ~size:1448 ~now:0.0 ())
  done

let delivered_seqs h =
  List.rev_map (fun p -> p.Packet.seq) !(h.delivered)

let suite =
  [
    ( "tcp-subflow",
      [
        tc "nothing transmits before establishment" (fun () ->
            let h = make_harness () in
            (* send before the handshake completes: must queue, and be
               flushed at establishment *)
            send_n h 3;
            Alcotest.(check int) "nothing on wire" 0 h.sbf.Tcp_subflow.segs_sent;
            ignore (Eventq.run h.clock);
            Alcotest.(check (list int)) "all delivered after establish"
              [ 0; 1; 2 ] (delivered_seqs h));
        tc "reliable delivery without loss" (fun () ->
            let h = make_harness () in
            send_n h 50;
            ignore (Eventq.run h.clock);
            Alcotest.(check (list int)) "in order" (List.init 50 Fun.id)
              (delivered_seqs h);
            Alcotest.(check int) "no retransmissions" 0 h.sbf.Tcp_subflow.segs_retx);
        tc "reliable delivery with loss" (fun () ->
            let h = make_harness ~loss:0.05 () in
            send_n h 100;
            ignore (Eventq.run h.clock);
            let seqs = List.sort compare (delivered_seqs h) in
            Alcotest.(check (list int)) "all arrive" (List.init 100 Fun.id) seqs;
            Alcotest.(check bool) "retransmissions happened" true
              (h.sbf.Tcp_subflow.segs_retx > 0);
            Alcotest.(check bool) "losses reported upward" true
              (!(h.suspected) <> []));
        tc "cwnd grows in slow start" (fun () ->
            let h = make_harness () in
            let before = h.sbf.Tcp_subflow.f.cwnd in
            send_n h 40;
            ignore (Eventq.run h.clock);
            Alcotest.(check bool) "cwnd grew" true (h.sbf.Tcp_subflow.f.cwnd > before));
        tc "loss halves the window (fast retransmit)" (fun () ->
            let h = make_harness ~loss:0.08 ~bandwidth:1e7 () in
            send_n h 300;
            ignore (Eventq.run h.clock);
            Alcotest.(check bool) "ssthresh dropped from initial" true
              (h.sbf.Tcp_subflow.f.ssthresh < 1e8);
            Alcotest.(check bool) "lost_skbs counted" true
              (h.sbf.Tcp_subflow.lost_skbs > 0));
        tc "rtt estimate converges to path rtt" (fun () ->
            let h = make_harness ~delay:0.025 () in
            send_n h 50;
            ignore (Eventq.run h.clock);
            let rtt = float_of_int (Tcp_subflow.rtt_us h.sbf) /. 1e6 in
            (* 2 * 25 ms propagation plus some serialization *)
            Alcotest.(check bool)
              (Fmt.str "rtt %.4f in [0.05, 0.08]" rtt)
              true
              (rtt >= 0.05 && rtt <= 0.08));
        tc "rto fires when all packets of a window are lost" (fun () ->
            (* 100% loss: only RTO can detect (no dupacks at all) *)
            let h = make_harness ~loss:1.0 () in
            send_n h 5;
            ignore (Eventq.run ~until:10.0 h.clock);
            Alcotest.(check bool) "cwnd collapsed" true (h.sbf.Tcp_subflow.f.cwnd <= 2.0);
            Alcotest.(check bool) "retransmissions attempted" true
              (h.sbf.Tcp_subflow.segs_retx > 2);
            Alcotest.(check bool) "rto backed off" true (h.sbf.Tcp_subflow.rto > 0.2));
        tc "data-acked packets are not transmitted" (fun () ->
            let h = make_harness () in
            let p = Packet.create ~seq:0 ~size:1448 ~now:0.0 () in
            p.Packet.acked <- true;
            Tcp_subflow.send h.sbf p;
            ignore (Eventq.run h.clock);
            Alcotest.(check int) "skipped" 0 h.sbf.Tcp_subflow.segs_sent);
        tc "receive window blocks transmission" (fun () ->
            let h = make_harness () in
            h.sbf.Tcp_subflow.rwnd_bytes <- (fun () -> 3 * 1448);
            send_n h 20;
            (* establishment at 0.02 s; first acks return after ~0.04 s *)
            ignore (Eventq.run ~until:0.035 h.clock);
            Alcotest.(check int) "exactly 3 before any ack" 3
              h.sbf.Tcp_subflow.segs_sent;
            ignore (Eventq.run h.clock);
            Alcotest.(check int) "window opens as acks return" 20
              h.sbf.Tcp_subflow.segs_sent);
        tc "two-layer mode delays out-of-order subflow delivery" (fun () ->
            (* with loss, Immediate delivers more packets early than
               Two_layer on the same seed *)
            let run mode =
              let h = make_harness ~loss:0.05 ~delivery_mode:mode () in
              send_n h 100;
              ignore (Eventq.run ~until:1.2 h.clock);
              List.length !(h.delivered)
            in
            let imm = run Tcp_subflow.Immediate in
            let two = run Tcp_subflow.Two_layer in
            Alcotest.(check bool)
              (Fmt.str "immediate (%d) >= two-layer (%d)" imm two)
              true (imm >= two));
        tc "tsq throttling reflects link backlog" (fun () ->
            let h = make_harness ~bandwidth:10_000.0 () in
            send_n h 10;
            ignore (Eventq.run ~until:0.05 h.clock);
            (* 10 segments at 10 kB/s: several seconds of backlog *)
            Alcotest.(check bool) "throttled" true (Tcp_subflow.tsq_throttled h.sbf));
        tc "subflow failure hands all pending packets to on_failed" (fun () ->
            let h = make_harness ~bandwidth:100_000.0 () in
            let failed = ref [] in
            h.sbf.Tcp_subflow.on_failed <- (fun pkts -> failed := pkts);
            send_n h 20;
            ignore (Eventq.run ~until:0.05 h.clock);
            Tcp_subflow.fail h.sbf;
            Alcotest.(check int) "all 20 reported" 20 (List.length !failed);
            Alcotest.(check int) "send buffer cleared" 0
              (Tcp_subflow.queued_count h.sbf));
        tc "view reflects subflow state" (fun () ->
            let h = make_harness () in
            send_n h 5;
            (* after establishment (0.02 s), before the first acks *)
            ignore (Eventq.run ~until:0.03 h.clock);
            let v = Tcp_subflow.view h.sbf in
            Alcotest.(check int) "id" 0 v.Subflow_view.id;
            Alcotest.(check bool) "in flight counted" true
              (v.Subflow_view.skbs_in_flight > 0);
            Alcotest.(check bool) "throughput positive" true
              (v.Subflow_view.throughput_bps > 0));
        tc "lia coupling is less aggressive than reno" (fun () ->
            let grow cc =
              let h = make_harness ~bandwidth:1e7 () in
              (* force congestion avoidance so the coupled increase is hit *)
              h.sbf.Tcp_subflow.f.ssthresh <- 1.0;
              (match cc with
              | `Lia -> Congestion.install_lia [ h.sbf ]
              | `Reno -> ());
              send_n h 400;
              ignore (Eventq.run h.clock);
              h.sbf.Tcp_subflow.f.cwnd
            in
            let reno = grow `Reno and lia = grow `Lia in
            Alcotest.(check bool)
              (Fmt.str "lia (%.1f) <= reno (%.1f)" lia reno)
              true (lia <= reno +. 0.001));
      ] );
  ]

(* Estimator and loss-marking details added for the evaluation fixes. *)
let estimator_suite =
  [
    ( "tcp-estimators",
      [
        tc "throughput estimate tracks the bottleneck rate" (fun () ->
            let h = make_harness ~bandwidth:500_000.0 ~delay:0.01 () in
            send_n h 600;
            ignore (Eventq.run ~until:1.5 h.clock);
            let est = float_of_int (Tcp_subflow.throughput_estimate h.sbf) in
            Alcotest.(check bool)
              (Fmt.str "estimate %.0f within 30%% of 500000" est)
              true
              (est > 350_000.0 && est < 700_000.0));
        tc "throughput estimate falls back to cwnd bound before samples"
          (fun () ->
            let h = make_harness () in
            let est = Tcp_subflow.throughput_estimate h.sbf in
            (* initial cwnd 10 * 1448 B / 20 ms handshake RTT *)
            Alcotest.(check bool) "positive" true (est > 0));
        tc "sack marking reports every hole at once" (fun () ->
            (* drop a burst in the middle of a window: all lost segments
               must surface as suspected losses, not one per RTT *)
            let h = make_harness ~bandwidth:1e7 () in
            (* lossless warm-up to grow the window *)
            send_n h 60;
            ignore (Eventq.run ~until:0.5 h.clock);
            (* now black out the link for a moment *)
            Link.set_loss h.sbf.Tcp_subflow.data_link 1.0;
            for i = 100 to 119 do
              Tcp_subflow.send h.sbf (Packet.create ~seq:i ~size:1448 ~now:0.0 ())
            done;
            ignore (Eventq.run ~until:0.6 h.clock);
            Link.set_loss h.sbf.Tcp_subflow.data_link 0.0;
            (* more traffic generates dupacks and triggers recovery *)
            for i = 120 to 139 do
              Tcp_subflow.send h.sbf (Packet.create ~seq:i ~size:1448 ~now:0.0 ())
            done;
            ignore (Eventq.run h.clock);
            let suspected =
              List.sort_uniq compare
                (List.map (fun p -> p.Packet.seq) !(h.suspected))
            in
            Alcotest.(check bool)
              (Fmt.str "%d holes reported" (List.length suspected))
              true
              (List.length suspected >= 15));
        tc "rwnd exemption lets the next in-order segment through" (fun () ->
            let h = make_harness () in
            (* peer advertises a zero window, but the packet is the next
               the receiving application needs *)
            h.sbf.Tcp_subflow.rwnd_bytes <- (fun () -> 0);
            h.sbf.Tcp_subflow.rwnd_exempt <- (fun p -> p.Packet.seq = 0);
            Tcp_subflow.send h.sbf (Packet.create ~seq:0 ~size:1448 ~now:0.0 ());
            Tcp_subflow.send h.sbf (Packet.create ~seq:1 ~size:1448 ~now:0.0 ());
            ignore (Eventq.run ~until:0.5 h.clock);
            Alcotest.(check int) "only the exempt segment went out" 1
              h.sbf.Tcp_subflow.segs_sent);
        tc "rate-sample history stays bounded over a million-event run"
          (fun () ->
            (* the max filter keeps one sample per >= 0.2 s within a 2 s
               window, so the history can never exceed 11 entries no
               matter how long the subflow runs; regression for the
               unbounded-growth / per-call-allocation bug *)
            let h = make_harness ~bandwidth:1e8 ~delay:0.005 () in
            let events = ref 0 in
            let chunk = 20_000 and chunks = 28 in
            for c = 0 to chunks - 1 do
              for i = 0 to chunk - 1 do
                Tcp_subflow.send h.sbf
                  (Packet.create ~seq:((c * chunk) + i) ~size:1448 ~now:0.0 ())
              done;
              events := !events + Eventq.run h.clock
            done;
            Alcotest.(check bool)
              (Fmt.str "worked through %d events (>= 1e6)" !events)
              true (!events >= 1_000_000);
            let n = h.sbf.Tcp_subflow.rate_len in
            Alcotest.(check bool)
              (Fmt.str "history holds %d samples (<= 11)" n)
              true (n <= 11);
            let est = float_of_int (Tcp_subflow.throughput_estimate h.sbf) in
            Alcotest.(check bool)
              (Fmt.str "estimate %.3e is sample-derived and sane" est)
              true
              (est > 1e6 && est < 1.5e8));
      ] );
  ]
