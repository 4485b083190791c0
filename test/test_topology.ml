(** Link-graph topologies, AQM queues and link-model correctness: the
    builtin/parsed topology surface, RED drop mechanics, bandwidth
    validation, the zero-mean jitter fix, and statistical properties of
    the Gilbert–Elliott loss chain. *)

open Mptcp_sim

let fresh_link ?(params = Link.default_params) ?(seed = 5) () =
  let clock = Eventq.create () in
  let link = Link.create ~params ~clock ~rng:(Rng.create seed) () in
  (clock, link)

(* ---------- topology specs: builtins, parsing, validation ---------- *)

let test_builtins () =
  Alcotest.(check (list string))
    "names"
    [ "dumbbell"; "dumbbell-red"; "two-bottlenecks" ]
    Topology.names;
  List.iter
    (fun t ->
      (match Topology.validate t with
      | Ok () -> ()
      | Error e -> Alcotest.failf "builtin %s invalid: %s" (Topology.name t) e);
      Alcotest.(check bool)
        (Topology.name t ^ " resolves") true
        (Topology.of_name (Topology.name t) = Some t))
    Topology.builtins;
  Alcotest.(check bool) "unknown is None" true (Topology.of_name "zzz" = None)

let test_parse_roundtrip () =
  let text =
    {|# a shared core and two access routes
link core bw 2500000 delay 0.015 loss 0.01 jitter 0.002 buffer 65536
link side bw 1000000 delay 0.03 red 8192 32768 0.15
path wifi via core
path lte via side ack_delay 0.05 backup
|}
  in
  match Topology.parse ~name:"t" text with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok t ->
      Alcotest.(check int) "links" 2 (List.length t.Topology.t_links);
      Alcotest.(check int) "routes" 2 (List.length t.Topology.t_routes);
      let core = List.hd t.Topology.t_links in
      Alcotest.(check string) "link name" "core" core.Topology.l_name;
      Alcotest.(check (float 1e-9)) "bw" 2500000.0
        core.Topology.l_params.Link.bandwidth;
      Alcotest.(check int) "buffer" 65536
        core.Topology.l_params.Link.buffer_bytes;
      let side = List.nth t.Topology.t_links 1 in
      (match side.Topology.l_params.Link.qdisc with
      | Link.Red r ->
          Alcotest.(check int) "red min" 8192 r.Link.red_min;
          Alcotest.(check (float 1e-9)) "red pmax" 0.15 r.Link.red_pmax
      | Link.Drop_tail -> Alcotest.fail "expected RED qdisc");
      let lte = List.nth t.Topology.t_routes 1 in
      Alcotest.(check bool) "backup" true lte.Topology.r_backup;
      Alcotest.(check bool)
        "ack delay" true
        (lte.Topology.r_ack_delay = Some 0.05)

let check_parse_error name text want =
  match Topology.parse ~name:"t" text with
  | Ok _ -> Alcotest.failf "%s: expected a parse error" name
  | Error e ->
      Alcotest.(check string) name want e

let test_parse_errors () =
  check_parse_error "unknown link" "link a bw 1000 delay 0.01\npath p via b\n"
    "t: path \"p\" routes via unknown link \"b\"";
  check_parse_error "zero bw" "link a bw 0 delay 0.01\n"
    "t:1: bw must be positive";
  check_parse_error "nan bw" "link a bw nan delay 0.01\n"
    "t:1: bw: expected a finite number, got \"nan\"";
  check_parse_error "bad number" "link a bw wat delay 0.01\n"
    "t:1: bw: expected a finite number, got \"wat\"";
  check_parse_error "dup link"
    "link a bw 1000 delay 0.01\nlink a bw 1000 delay 0.01\npath p via a\n"
    "t: duplicate link \"a\"";
  check_parse_error "no routes" "link a bw 1000 delay 0.01\n"
    "t: topology has no paths";
  check_parse_error "located past comments"
    "# c\n\nlink a bw 1000 delay 0.01 red 9 8 0.5\n"
    "t:3: red thresholds need 0 <= min < max"

let test_resolve () =
  (match Topology.resolve "dumbbell-red" with
  | Ok t -> Alcotest.(check string) "builtin" "dumbbell-red" (Topology.name t)
  | Error e -> Alcotest.failf "resolve builtin: %s" e);
  match Topology.resolve "no-such-topology" with
  | Ok _ -> Alcotest.fail "expected an error"
  | Error e ->
      let contains hay needle =
        let nl = String.length needle and hl = String.length hay in
        let rec at i =
          i + nl <= hl && (String.sub hay i nl = needle || at (i + 1))
        in
        at 0
      in
      Alcotest.(check bool) "lists builtins" true (contains e "dumbbell")

let test_build_and_stats () =
  let clock = Eventq.create () in
  let built = Topology.build ~seed:3 ~clock Topology.two_bottlenecks in
  Alcotest.(check int) "links built" 2
    (List.length (Topology.links built));
  Alcotest.(check bool) "link_exn" true
    (Link.is_up (Topology.link_exn built "left"));
  Alcotest.check_raises "unknown link"
    (Invalid_argument "Topology.link_exn: no link \"nosuch\"")
    (fun () -> ignore (Topology.link_exn built "nosuch"));
  let stats = Topology.stats built in
  Alcotest.(check (list string))
    "stat names" [ "left"; "right" ]
    (List.map (fun s -> s.Topology.ls_name) stats)

(* ---------- link-model correctness ---------- *)

let test_bandwidth_validation () =
  let clock = Eventq.create () in
  let mk bw () =
    ignore
      (Link.create
         ~params:{ Link.default_params with bandwidth = bw }
         ~clock ~rng:(Rng.create 1) ())
  in
  let wedges = [ 0.0; -1.0; Float.nan; Float.infinity ] in
  List.iter
    (fun bw ->
      (try
         mk bw ();
         Alcotest.failf "create accepted bandwidth %f" bw
       with Invalid_argument _ -> ());
      let _, link = fresh_link () in
      try
        Link.set_bandwidth link bw;
        Alcotest.failf "set_bandwidth accepted %f" bw
      with Invalid_argument _ -> ())
    wedges;
  (* a valid change still works *)
  let _, link = fresh_link () in
  Link.set_bandwidth link 5000.0;
  Alcotest.(check (float 1e-9)) "applied" 5000.0 (Link.bandwidth link)

let test_red_engages () =
  (* hammer a slow RED link without draining the clock: the backlog
     climbs through the thresholds, so early drops must appear before
     the drop-tail cap is ever hit *)
  let params =
    {
      Link.default_params with
      bandwidth = 10_000.0;
      buffer_bytes = 256 * 1024;
      loss = 0.0;
      qdisc =
        Link.Red
          { red_min = 8 * 1024; red_max = 32 * 1024; red_pmax = 0.3;
            red_weight = 0.2 };
    }
  in
  let _, link = fresh_link ~params () in
  let outcomes = Array.make 200 Link.Lost_down in
  for i = 0 to 199 do
    outcomes.(i) <-
      Link.transmit link ~size:1500 (fun () -> ignore (Link.arrival link))
  done;
  let count p = Array.to_list outcomes |> List.filter p |> List.length in
  let red = count (fun o -> o = Link.Dropped_red) in
  let tail = count (fun o -> o = Link.Dropped_tail) in
  Alcotest.(check bool) "red dropped some" true (red > 0);
  Alcotest.(check bool)
    (Fmt.str "forced drops above max_th (red %d tail %d)" red tail)
    true
    (red > 20);
  Alcotest.(check int) "dropped() counts both" (red + tail)
    (Link.dropped link);
  Alcotest.(check int) "red counter" red link.Link.red_dropped;
  (* same offered load on a drop-tail link: only tail drops *)
  let params_dt = { params with Link.qdisc = Link.Drop_tail } in
  let _, dt = fresh_link ~params:params_dt () in
  for _ = 1 to 200 do
    ignore (Link.transmit dt ~size:1500 (fun () -> ignore (Link.arrival dt)))
  done;
  Alcotest.(check int) "no red drops under drop-tail" 0 dt.Link.red_dropped

let test_occupancy_accounting () =
  (* two back-to-back packets on an idle link: exact integral of the
     piecewise-constant backlog *)
  let params =
    { Link.default_params with bandwidth = 1000.0; loss = 0.0; jitter = 0.0 }
  in
  let clock, link = fresh_link ~params () in
  ignore (Link.transmit link ~size:500 (fun () -> ignore (Link.arrival link)));
  ignore (Link.transmit link ~size:500 (fun () -> ignore (Link.arrival link)));
  (* serialization: 0.5 s each; backlog 1000 B over [0, 0.5), 500 B over
     [0.5, 1.0) *)
  Alcotest.(check int) "peak" 1000 (Link.peak_backlog link);
  ignore (Eventq.run ~until:2.0 clock);
  Alcotest.(check int) "drained" 0 (Link.backlog_bytes link);
  (* the clock stops at the last event (second arrival, 1.0 + delay);
     the integral is 1000 B x 0.5 s + 500 B x 0.5 s = 750 B.s *)
  let expect = ((1000.0 *. 0.5) +. (500.0 *. 0.5)) /. Eventq.now clock in
  Alcotest.(check (float 1e-6)) "mean occupancy" expect
    (Link.mean_backlog link)

let test_jitter_zero_mean () =
  (* the half-gaussian bug skewed every arrival late; the fix clamps
     the total propagation offset at zero instead of folding the noise.
     With jitter << delay the clamp almost never binds, so the
     empirical mean arrival offset must sit at [delay], not
     [delay + jitter * sqrt(2/pi)]. *)
  let delay = 0.05 and jitter = 0.01 in
  let n = 2000 in
  let params =
    {
      Link.default_params with
      bandwidth = 1e9;
      delay;
      jitter;
      loss = 0.0;
      buffer_bytes = max_int;
    }
  in
  let clock, link = fresh_link ~params ~seed:17 () in
  let sum = ref 0.0 and count = ref 0 and min_arrival = ref infinity in
  for _ = 1 to n do
    let sent = Eventq.now clock in
    (match
       Link.transmit link ~size:100 (fun () ->
           if Link.arrival link then begin
             let off = Eventq.now clock -. sent in
             sum := !sum +. off;
             min_arrival := Float.min !min_arrival off;
             incr count
           end)
     with
    | Link.Delivered -> ()
    | _ -> Alcotest.fail "unexpected loss on a lossless link");
    (* drain so serialization time stays negligible *)
    ignore (Eventq.run ~until:(Eventq.now clock +. 1.0) clock)
  done;
  Alcotest.(check int) "all arrived" n !count;
  let mean = !sum /. float_of_int n in
  let half_gaussian_bias = jitter *. Float.sqrt (2.0 /. Float.pi) in
  Alcotest.(check bool)
    (Fmt.str "mean %.5f within 0.001 of delay %.5f" mean delay)
    true
    (Float.abs (mean -. delay) < 0.001);
  Alcotest.(check bool) "well below the folded-noise mean" true
    (mean < delay +. (half_gaussian_bias /. 2.0));
  Alcotest.(check bool) "offsets never negative" true (!min_arrival >= 0.0)

(* ---------- Gilbert–Elliott chain properties ---------- *)

let ge_props =
  let p_enter = 0.05 and p_exit = 0.2 and loss_bad = 0.5 in
  let n = 50_000 in
  QCheck.Test.make ~count:5 ~name:"gilbert-elliott stationary behaviour"
    QCheck.(int_range 1 1000)
    (fun seed ->
      let params =
        {
          Link.default_params with
          bandwidth = 1e9;
          loss = 0.0;
          buffer_bytes = max_int;
        }
      in
      let clock, link = fresh_link ~params ~seed () in
      Link.set_gilbert link ~p_enter ~p_exit ~loss_bad;
      let losses = ref 0 and bad_steps = ref 0 and bad_sojourns = ref 0 in
      let was_bad = ref false in
      for _ = 1 to n do
        (match
           Link.transmit link ~size:100 (fun () -> ignore (Link.arrival link))
         with
        | Link.Lost_random -> incr losses
        | Link.Delivered -> ()
        | _ -> QCheck.Test.fail_report "unexpected drop");
        (match link.Link.loss_model with
        | Link.Gilbert g ->
            if g.Link.bad then begin
              incr bad_steps;
              if not !was_bad then incr bad_sojourns;
              was_bad := true
            end
            else was_bad := false
        | Link.Bernoulli -> QCheck.Test.fail_report "model reset unexpectedly");
        ignore (Eventq.run ~until:(Eventq.now clock +. 1.0) clock)
      done;
      let fn = float_of_int n in
      let pi_bad = p_enter /. (p_enter +. p_exit) in
      let loss_rate = float_of_int !losses /. fn in
      let bad_frac = float_of_int !bad_steps /. fn in
      let mean_sojourn =
        float_of_int !bad_steps /. float_of_int (max 1 !bad_sojourns)
      in
      (* generous 25% relative tolerances: the chain mixes fast
         (expected sojourns of 5 packets) and n = 50k packets *)
      let close ~what got want =
        if Float.abs (got -. want) > 0.25 *. want then
          QCheck.Test.fail_reportf "%s: got %.4f, want %.4f" what got want
      in
      close ~what:"stationary loss rate" loss_rate (pi_bad *. loss_bad);
      close ~what:"bad-state fraction" bad_frac pi_bad;
      close ~what:"mean bad sojourn" mean_sojourn (1.0 /. p_exit);
      true)

(* ---------- coupled CC at a shared bottleneck ---------- *)

let aggregate_goodput ~cc =
  let duration = 8.0 in
  let clock = Eventq.create () in
  let built = Topology.build ~seed:11 ~clock Topology.dumbbell in
  let mptcp = Topology.connect ~seed:11 ~cc built in
  let single =
    Topology.single built ~seed:(Rng.stream_seed ~seed:11 1) ~via:"bottleneck"
      ()
  in
  let saturate conn =
    Apps.Workload.cbr conn ~start:0.1 ~stop:duration ~interval:0.05
      ~rate:(fun _ -> 2_000_000.0)
  in
  saturate mptcp;
  saturate single;
  ignore (Eventq.run ~until:duration clock);
  ( float_of_int (Connection.delivered_bytes mptcp),
    float_of_int (Connection.delivered_bytes single) )

let test_lia_shared_bottleneck () =
  (* two LIA-coupled subflows behave like roughly one flow against the
     single-path competitor; two uncoupled Reno windows take close to
     two shares — the RFC 6356 separation, cheap edition (the tight
     bounds live in examples/fairness.ml, cram-gated) *)
  let lia_m, lia_s = aggregate_goodput ~cc:Congestion.Lia in
  let reno_m, reno_s = aggregate_goodput ~cc:Congestion.Reno in
  let lia_ratio = lia_m /. lia_s and reno_ratio = reno_m /. reno_s in
  Alcotest.(check bool)
    (Fmt.str "lia (%.2f) friendlier than reno (%.2f)" lia_ratio reno_ratio)
    true (lia_ratio < reno_ratio);
  Alcotest.(check bool)
    (Fmt.str "lia ratio %.2f below 1.4" lia_ratio)
    true (lia_ratio < 1.4);
  Alcotest.(check bool)
    (Fmt.str "reno ratio %.2f above 1.4" reno_ratio)
    true (reno_ratio > 1.4)

let suite =
  [
    ( "topology",
      [
        Alcotest.test_case "builtins validate and resolve" `Quick test_builtins;
        Alcotest.test_case "parse round-trips the grammar" `Quick
          test_parse_roundtrip;
        Alcotest.test_case "parse errors are located" `Quick test_parse_errors;
        Alcotest.test_case "resolve falls back helpfully" `Quick test_resolve;
        Alcotest.test_case "build exposes links and stats" `Quick
          test_build_and_stats;
      ] );
    ( "link-model",
      [
        Alcotest.test_case "bandwidth validation rejects wedges" `Quick
          test_bandwidth_validation;
        Alcotest.test_case "RED drops early, drop-tail does not" `Quick
          test_red_engages;
        Alcotest.test_case "occupancy integral is exact" `Quick
          test_occupancy_accounting;
        Alcotest.test_case "jitter noise is zero-mean" `Quick
          test_jitter_zero_mean;
        QCheck_alcotest.to_alcotest ge_props;
      ] );
    ( "shared-bottleneck cc",
      [
        Alcotest.test_case "LIA couples, Reno does not" `Slow
          test_lia_shared_bottleneck;
      ] );
  ]
