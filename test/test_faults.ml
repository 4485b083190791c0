(** The fault-injection subsystem: timeline semantics (equal-timestamp
    ordering, idempotent outages), the Gilbert–Elliott burst-loss model,
    the script parser and combinators, and the mid-flight immutability of
    link parameters (packets keep the arrival time, loss decision and
    byte accounting they were admitted with). *)

open Mptcp_sim
open Helpers

let one_path ?(seed = 3) () =
  let paths =
    [
      Path_manager.symmetric ~name:"p0"
        { Link.default_params with Link.bandwidth = 1_000_000.0; delay = 0.01 };
    ]
  in
  Connection.create ~seed ~paths ()

let two_paths ?(seed = 3) () =
  let mk name delay =
    Path_manager.symmetric ~name
      { Link.default_params with Link.bandwidth = 1_000_000.0; delay }
  in
  Connection.create ~seed ~paths:[ mk "p0" 0.01; mk "p1" 0.03 ] ()

(* ---------- timeline semantics ---------- *)

let test_equal_timestamp_order () =
  (* steps sharing a timestamp apply in script order: the last write to
     the same knob wins *)
  let final order =
    let conn = one_path () in
    Faults.apply conn
      (List.map (fun bw -> Faults.step ~at:0.5 "p0" (Faults.Set_bandwidth bw)) order);
    Connection.run ~until:1.0 conn;
    Link.bandwidth (Connection.data_link conn 0)
  in
  Alcotest.(check (float 0.0)) "last step wins" 222.0 (final [ 111.0; 222.0 ]);
  Alcotest.(check (float 0.0)) "order reversed" 111.0 (final [ 222.0; 111.0 ])

let test_out_of_order_script () =
  (* apply sorts by time, so a script listed backwards still plays
     forward *)
  let conn = one_path () in
  Faults.apply conn
    [
      Faults.step ~at:2.0 "p0" (Faults.Set_bandwidth 999.0);
      Faults.step ~at:1.0 "p0" (Faults.Set_bandwidth 111.0);
    ];
  Connection.run ~until:1.5 conn;
  Alcotest.(check (float 0.0)) "earlier step applied first" 111.0
    (Link.bandwidth (Connection.data_link conn 0));
  Connection.run ~until:3.0 conn;
  Alcotest.(check (float 0.0)) "later step applied last" 999.0
    (Link.bandwidth (Connection.data_link conn 0))

let test_down_up_idempotent () =
  let conn = one_path () in
  Faults.apply conn
    [
      Faults.step ~at:0.2 "p0" Faults.Link_down;
      Faults.step ~at:0.3 "p0" Faults.Link_down;
      (* twice down, once up: up/down are absolute states, not counters *)
      Faults.step ~at:0.4 "p0" Faults.Link_up;
      Faults.step ~at:0.5 "p0" Faults.Link_up;
    ];
  Connection.write_at conn ~time:0.1 200_000;
  Connection.run ~until:300.0 conn;
  Alcotest.(check bool) "link back up" true
    (Link.is_up (Connection.data_link conn 0));
  Alcotest.(check bool) "transfer completed" true
    (Meta_socket.all_delivered conn.Connection.meta)

let test_unknown_path_skipped () =
  let conn = one_path () in
  Faults.apply conn [ Faults.step ~at:0.2 "no-such-path" Faults.Link_down ];
  Connection.write_at conn ~time:0.1 50_000;
  Connection.run ~until:300.0 conn;
  Alcotest.(check bool) "unknown path is a no-op" true
    (Meta_socket.all_delivered conn.Connection.meta)

(* ---------- Gilbert–Elliott burst loss ---------- *)

let test_gilbert_stationary_rate () =
  (* the chain advances once per transmitted packet, so the empirical
     loss rate over many packets must approach
     pi_bad * loss_bad + (1 - pi_bad) * loss_good. Fixed seed: the run
     is deterministic, the tolerance covers burst correlation. *)
  let clock = Eventq.create () in
  let link =
    Link.create
      ~params:
        {
          Link.default_params with
          Link.bandwidth = 1e12;
          buffer_bytes = max_int;
          loss = 0.0;
        }
      ~clock ~rng:(Rng.create 11) ()
  in
  let p_enter = 0.1 and p_exit = 0.3 and loss_bad = 0.6 in
  Link.set_gilbert link ~p_enter ~p_exit ~loss_bad;
  let n = 50_000 in
  let lost = ref 0 in
  for _ = 1 to n do
    match
      Link.transmit link ~size:100 (fun () -> ignore (Link.arrival link))
    with
    | Link.Lost_random -> incr lost
    | Link.Delivered -> ()
    | Link.Dropped_tail | Link.Dropped_red | Link.Lost_down ->
        Alcotest.fail "unexpected outcome"
  done;
  let pi_bad = p_enter /. (p_enter +. p_exit) in
  let expected = pi_bad *. loss_bad in
  let got = float_of_int !lost /. float_of_int n in
  Alcotest.(check bool)
    (Fmt.str "stationary rate %.4f within 10%% of analytic %.4f" got expected)
    true
    (Float.abs (got -. expected) <= 0.1 *. expected)

let test_bernoulli_reset () =
  let clock = Eventq.create () in
  let link =
    Link.create
      ~params:
        {
          Link.default_params with
          Link.bandwidth = 1e12;
          buffer_bytes = max_int;
          loss = 0.0;
        }
      ~clock ~rng:(Rng.create 5) ()
  in
  Link.set_gilbert link ~p_enter:1.0 ~p_exit:0.0 ~loss_bad:1.0;
  (match
     Link.transmit link ~size:100 (fun () -> ignore (Link.arrival link))
   with
  | Link.Lost_random -> ()
  | _ -> Alcotest.fail "p_enter=1, loss_bad=1 must lose the packet");
  Link.set_bernoulli link;
  for _ = 1 to 100 do
    match
      Link.transmit link ~size:100 (fun () -> ignore (Link.arrival link))
    with
    | Link.Delivered -> ()
    | _ -> Alcotest.fail "after reset, loss=0 must deliver"
  done

(* ---------- mid-flight immutability (regression) ---------- *)

let flight_params =
  {
    Link.default_params with
    Link.bandwidth = 1000.0;
    delay = 0.01;
    buffer_bytes = 1_000_000;
    loss = 0.0;
  }

let test_bandwidth_change_spares_in_flight () =
  let clock = Eventq.create () in
  let link = Link.create ~params:flight_params ~clock ~rng:(Rng.create 1) () in
  let arrived = ref nan in
  (* 1000 B at 1000 B/s: on the wire at 1.0, arrival at 1.01 *)
  (match
     Link.transmit link ~size:1000 (fun () ->
         if Link.arrival link then arrived := Eventq.now clock)
   with
  | Link.Delivered ->
      Alcotest.(check (float 1e-9))
        "promised arrival" 1.01
        (Link.busy_until link +. Link.delay link)
  | _ -> Alcotest.fail "expected Delivered");
  Alcotest.(check int) "admitted bytes backlogged" 1000 (Link.backlog_bytes link);
  Link.set_bandwidth link 1.0;
  Alcotest.(check int) "backlog accounting immune to rate change" 1000
    (Link.backlog_bytes link);
  Alcotest.(check (float 1e-9)) "serialization horizon immune" 1.0
    (Link.busy_until link);
  ignore (Eventq.run clock);
  Alcotest.(check (float 1e-9)) "arrival time immune to rate change" 1.01
    !arrived

let test_loss_change_spares_in_flight () =
  let clock = Eventq.create () in
  let link = Link.create ~params:flight_params ~clock ~rng:(Rng.create 1) () in
  let arrived = ref false in
  (match
     Link.transmit link ~size:1000 (fun () ->
         if Link.arrival link then arrived := true)
   with
  | Link.Delivered -> ()
  | _ -> Alcotest.fail "expected Delivered");
  (* the loss decision was made at admission; raising loss to certainty
     afterwards must not retroactively destroy the packet *)
  Link.set_loss link 1.0;
  (match
     Link.transmit link ~size:1000 (fun () -> ignore (Link.arrival link))
   with
  | Link.Lost_random -> ()
  | _ -> Alcotest.fail "new transmissions see the new loss rate");
  ignore (Eventq.run clock);
  Alcotest.(check bool) "in-flight packet survived" true !arrived

let test_link_down_destroys_in_flight () =
  let clock = Eventq.create () in
  let link = Link.create ~params:flight_params ~clock ~rng:(Rng.create 1) () in
  let arrived = ref false in
  (match
     Link.transmit link ~size:1000 (fun () ->
         if Link.arrival link then arrived := true)
   with
  | Link.Delivered -> ()
  | _ -> Alcotest.fail "expected Delivered");
  Eventq.post clock ~at:0.5 (fun () -> Link.set_down link);
  ignore (Eventq.run clock);
  Alcotest.(check bool) "in-the-air packet destroyed at arrival" false !arrived;
  Alcotest.(check int) "accounted as lost to the outage" 1 link.Link.lost_down;
  Alcotest.(check int) "not accounted as delivered" 0 link.Link.delivered;
  (* transmissions while down are destroyed without consuming
     serialization time *)
  let busy = Link.busy_until link in
  (match
     Link.transmit link ~size:1000 (fun () -> ignore (Link.arrival link))
   with
  | Link.Lost_down -> ()
  | _ -> Alcotest.fail "expected Lost_down");
  Alcotest.(check (float 0.0)) "no serialization while down" busy
    (Link.busy_until link)

(* ---------- subflow fail / reestablish ---------- *)

let test_fail_reestablish_completes () =
  let conn = two_paths () in
  Faults.apply conn
    [
      Faults.step ~at:0.5 "p0" Faults.Subflow_fail;
      Faults.step ~at:2.0 "p0" Faults.Subflow_reestablish;
    ];
  let order = ref [] in
  conn.Connection.meta.Meta_socket.on_deliver <-
    (fun ~seq ~size:_ ~time:_ -> order := seq :: !order);
  let checker = Invariants.attach conn in
  Connection.write_at conn ~time:0.1 300_000;
  Connection.run ~until:300.0 conn;
  Alcotest.(check bool) "transfer completed" true
    (Meta_socket.all_delivered conn.Connection.meta);
  let got = List.rev !order in
  Alcotest.(check bool) "delivered in order exactly once" true
    (got = List.init (List.length got) Fun.id);
  Alcotest.(check bool) "subflow re-established" true
    (Connection.subflow conn 0).Tcp_subflow.established;
  Alcotest.(check int)
    (Fmt.str "invariants clean: %s"
       (Option.value ~default:"" (Invariants.report checker)))
    0 (Invariants.total checker)

(* ---------- combinators ---------- *)

let times script = List.map (fun s -> s.Faults.at) script

let test_periodic () =
  let s = Faults.periodic ~start:1.0 ~period:0.5 ~until:2.6 "p0" Faults.Link_down in
  Alcotest.(check (list (float 1e-9))) "every period in [start, until)"
    [ 1.0; 1.5; 2.0; 2.5 ] (times s);
  Alcotest.check_raises "period must be positive"
    (Invalid_argument "Faults.periodic: period must be positive") (fun () ->
      ignore (Faults.periodic ~start:0.0 ~period:0.0 ~until:1.0 "p0" Faults.Link_up))

let test_flap () =
  let s = Faults.flap ~start:1.0 ~period:2.0 ~down_for:0.5 ~until:4.0 "p0" in
  Alcotest.(check (list (float 1e-9))) "downs paired with ups"
    [ 1.0; 1.5; 3.0; 3.5 ] (times s);
  List.iteri
    (fun i st ->
      let expect = if i mod 2 = 0 then Faults.Link_down else Faults.Link_up in
      Alcotest.(check bool) "alternating down/up" true (st.Faults.ev = expect))
    s;
  Alcotest.check_raises "down_for must fit in the period"
    (Invalid_argument "Faults.flap: down_for must be shorter than period")
    (fun () -> ignore (Faults.flap ~start:0.0 ~period:1.0 ~down_for:1.0 ~until:2.0 "p0"))

let test_jitter_deterministic () =
  let base = Faults.periodic ~start:1.0 ~period:1.0 ~until:5.0 "p0" Faults.Link_down in
  let a = Faults.jitter ~seed:9 ~amount:0.2 base in
  let b = Faults.jitter ~seed:9 ~amount:0.2 base in
  Alcotest.(check (list (float 1e-12))) "same seed, same timeline" (times a)
    (times b);
  List.iter2
    (fun orig j ->
      Alcotest.(check bool) "shift within [0, amount)" true
        (j.Faults.at >= orig.Faults.at && j.Faults.at < orig.Faults.at +. 0.2))
    base a;
  let sorted l = List.sort compare l = l in
  Alcotest.(check bool) "jittered script re-sorted" true (sorted (times a));
  let c = Faults.jitter ~seed:10 ~amount:0.2 base in
  Alcotest.(check bool) "different seed, different timeline" true
    (times a <> times c)

(* ---------- parser ---------- *)

let script_testable =
  Alcotest.testable
    Fmt.(list ~sep:(any "; ") Faults.pp_step)
    (fun a b -> a = b)

let check_parse name text expected =
  match Faults.parse text with
  | Ok s -> Alcotest.check script_testable name expected s
  | Error e -> Alcotest.failf "%s: unexpected parse error: %s" name e

let check_error name text expected =
  match Faults.parse text with
  | Ok _ -> Alcotest.failf "%s: expected a parse error" name
  | Error e -> Alcotest.(check string) name expected e

let test_parse_ok () =
  check_parse "full grammar"
    "# comment line\n\
     0.5 wifi bw 2000000   # trailing comment\n\
     1 wifi delay 0.02\n\
     1.5 wifi loss 0.03\n\
     2 wifi burst 0.1 0.3 0.6\n\
     2.5 wifi bernoulli\n\
     3 wifi down\n\
     8 wifi up\n\
     9 lte fail\n\
     10 lte reestablish\n\
     11 lte backup off\n\
     12 wifi lossy on\n\
     \n"
    [
      Faults.step ~at:0.5 "wifi" (Faults.Set_bandwidth 2_000_000.0);
      Faults.step ~at:1.0 "wifi" (Faults.Set_delay 0.02);
      Faults.step ~at:1.5 "wifi" (Faults.Set_loss 0.03);
      Faults.step ~at:2.0 "wifi"
        (Faults.Loss_burst { p_enter = 0.1; p_exit = 0.3; loss_bad = 0.6 });
      Faults.step ~at:2.5 "wifi" Faults.Loss_model_reset;
      Faults.step ~at:3.0 "wifi" Faults.Link_down;
      Faults.step ~at:8.0 "wifi" Faults.Link_up;
      Faults.step ~at:9.0 "lte" Faults.Subflow_fail;
      Faults.step ~at:10.0 "lte" Faults.Subflow_reestablish;
      Faults.step ~at:11.0 "lte" (Faults.Set_backup false);
      Faults.step ~at:12.0 "wifi" (Faults.Set_lossy true);
    ]

let test_parse_errors () =
  check_error "unknown action" "1.0 wifi frobnicate"
    "fault script line 1: unknown fault action \"frobnicate\"";
  check_error "line number counts comments" "# ok\n1.0 wifi down\nnonsense"
    "fault script line 3: expected TIME PATH ACTION [ARGS...]";
  check_error "bad time" "abc wifi down"
    "fault script line 1: time: not a number (\"abc\")";
  check_error "negative time" "-1 wifi down"
    "fault script line 1: time -1 is negative";
  check_error "arity" "1.0 wifi down now"
    "fault script line 1: action \"down\" takes 0 arguments";
  check_error "burst arity" "1.0 wifi burst 0.1"
    "fault script line 1: action \"burst\" takes 3 arguments";
  check_error "probability range" "1.0 wifi loss 1.5"
    "fault script line 1: loss: probability 1.5 out of [0, 1]";
  check_error "bool arg" "1.0 wifi backup maybe"
    "fault script line 1: backup: expected on|off, got \"maybe\"";
  check_error "bandwidth sign" "1.0 wifi bw -5"
    "fault script line 1: bandwidth must be positive and finite";
  check_error "bandwidth zero" "1.0 wifi bw 0"
    "fault script line 1: bandwidth must be positive and finite";
  check_error "bandwidth nan" "1.0 wifi bw nan"
    "fault script line 1: bandwidth must be positive and finite";
  check_error "bandwidth inf" "1.0 wifi bw inf"
    "fault script line 1: bandwidth must be positive and finite"

let test_load_missing_file () =
  match Faults.load "/nonexistent/faults.script" with
  | Ok _ -> Alcotest.fail "expected an error for a missing file"
  | Error e ->
      Alcotest.(check bool) "one-line diagnostic" true
        (String.length e > 0 && not (String.contains e '\n'))

(* ---------- §5.2 handover acceptance ---------- *)

let handover_run ~with_handover =
  ignore (Schedulers.Specs.load_all ());
  let conn = Connection.create ~seed:7 ~paths:(Mptcp_exp.Scenarios.wifi_lte ()) () in
  let sock = Connection.sock conn in
  Progmp_runtime.Api.set_scheduler sock "default";
  let pre = ref 0 and during = ref 0 in
  conn.Connection.meta.Meta_socket.on_deliver <-
    (fun ~seq:_ ~size ~time ->
      if time >= 1.0 && time < 3.0 then pre := !pre + size
      else if time >= 3.0 && time < 8.0 then during := !during + size);
  let checker = Invariants.attach conn in
  Faults.apply conn
    [
      Faults.step ~at:3.0 "wifi" Faults.Link_down;
      Faults.step ~at:8.0 "wifi" Faults.Link_up;
    ];
  if with_handover then begin
    Connection.at conn ~time:3.0 (fun () ->
        Progmp_runtime.Api.set_register sock 0
          (Connection.subflow conn 1).Tcp_subflow.id;
        Progmp_runtime.Api.set_scheduler sock "handover");
    Connection.at conn ~time:8.0 (fun () ->
        Progmp_runtime.Api.set_scheduler sock "default")
  end;
  Apps.Workload.cbr conn ~start:0.2 ~stop:10.0 ~interval:0.1
    ~rate:(fun _ -> 2_000_000.0);
  Connection.run ~until:12.0 conn;
  Alcotest.(check int)
    (Fmt.str "invariants clean: %s"
       (Option.value ~default:"" (Invariants.report checker)))
    0 (Invariants.total checker);
  (float_of_int !pre /. 2.0, float_of_int !during /. 5.0)

(* ---------- RTO backoff under sustained blackout ---------- *)

let test_rto_backoff_cap () =
  (* a blackout with data in flight drives exponential RTO backoff; the
     doubling must stop exactly at the 60 s cap, not overflow past it *)
  let conn = one_path () in
  Faults.apply conn [ Faults.step ~at:0.5 "p0" Faults.Link_down ];
  (* enough data that the blackout catches the transfer mid-flight, so
     the retransmit timer keeps firing with a non-empty inflight table *)
  Connection.write_at conn ~time:0.45 500_000;
  Connection.run ~until:200.0 conn;
  let sbf = Connection.subflow conn 0 in
  Alcotest.(check (float 0.0)) "rto capped at 60 s" 60.0 sbf.Tcp_subflow.rto;
  Alcotest.(check (float 0.0)) "cwnd collapsed to 1" 1.0 sbf.Tcp_subflow.f.cwnd;
  Alcotest.(check bool) "timer still armed at the cap" true
    (Eventq.timer_armed sbf.Tcp_subflow.rto_timer)

let test_rto_resets_after_reestablish () =
  (* after the backoff has hit the cap, a fail + reestablish cycle must
     restart the timer from the initial 1 s, re-arm it for new traffic,
     and let the (re-queued) transfer complete *)
  let conn = one_path () in
  Faults.apply conn
    [
      Faults.step ~at:0.5 "p0" Faults.Link_down;
      Faults.step ~at:200.0 "p0" Faults.Link_up;
      Faults.step ~at:200.0 "p0" Faults.Subflow_fail;
      Faults.step ~at:201.0 "p0" Faults.Subflow_reestablish;
    ];
  Connection.write_at conn ~time:0.45 500_000;
  Connection.run ~until:199.0 conn;
  let sbf = Connection.subflow conn 0 in
  Alcotest.(check (float 0.0)) "backed off to the cap first" 60.0
    sbf.Tcp_subflow.rto;
  (* probe just after the new handshake, while the retransmission burst
     is in flight: backoff gone, timer armed *)
  let probed_rto = ref infinity and probed_timer = ref false in
  Connection.at conn ~time:201.05 (fun () ->
      probed_rto := sbf.Tcp_subflow.rto;
      probed_timer := Eventq.timer_armed sbf.Tcp_subflow.rto_timer);
  Connection.run ~until:400.0 conn;
  Alcotest.(check bool)
    (Fmt.str "rto restarted from scratch (%.3f <= 1 s)" !probed_rto)
    true
    (!probed_rto <= 1.0);
  Alcotest.(check bool) "timer re-armed for the retransmitted data" true
    !probed_timer;
  Alcotest.(check bool) "transfer completes after reestablish" true
    (Meta_socket.all_delivered conn.Connection.meta)

let test_handover_criterion () =
  let pre_d, during_d = handover_run ~with_handover:false in
  Alcotest.(check bool)
    (Fmt.str "default stalls across Link_down (%.0f -> %.0f B/s)" pre_d during_d)
    true
    (during_d < 0.1 *. pre_d);
  let pre_h, during_h = handover_run ~with_handover:true in
  Alcotest.(check bool)
    (Fmt.str "handover keeps goodput within 2x (%.0f -> %.0f B/s)" pre_h
       during_h)
    true
    (during_h >= pre_h /. 2.0)

let suite =
  [
    ( "faults-timeline",
      [
        tc "equal timestamps apply in script order" test_equal_timestamp_order;
        tc "scripts may be listed out of order" test_out_of_order_script;
        tc "down/up are idempotent" test_down_up_idempotent;
        tc "unknown paths are skipped" test_unknown_path_skipped;
      ] );
    ( "faults-loss-model",
      [
        tc "Gilbert–Elliott stationary loss rate" test_gilbert_stationary_rate;
        tc "bernoulli reset" test_bernoulli_reset;
      ] );
    ( "faults-in-flight",
      [
        tc "bandwidth change spares in-flight packets"
          test_bandwidth_change_spares_in_flight;
        tc "loss change spares in-flight packets"
          test_loss_change_spares_in_flight;
        tc "link down destroys in-flight packets"
          test_link_down_destroys_in_flight;
      ] );
    ( "faults-subflow",
      [ tc "fail + reestablish still delivers everything"
          test_fail_reestablish_completes ] );
    ( "faults-rto",
      [
        tc "sustained blackout caps the RTO backoff at 60 s"
          test_rto_backoff_cap;
        tc "reestablish resets the backoff and re-arms the timer"
          test_rto_resets_after_reestablish;
      ] );
    ( "faults-combinators",
      [
        tc "periodic" test_periodic;
        tc "flap" test_flap;
        tc "jitter is seeded and deterministic" test_jitter_deterministic;
      ] );
    ( "faults-parser",
      [
        tc "full grammar" test_parse_ok;
        tc "diagnostics" test_parse_errors;
        tc "missing file" test_load_missing_file;
      ] );
    ( "faults-handover",
      [ tc "§5.2 handover acceptance criterion" test_handover_criterion ] );
  ]
