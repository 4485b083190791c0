(** Application-substrate tests: workload generators, the HTTP/2 page
    model, the DASH session, scenarios, and statistics helpers. *)

open Mptcp_sim
open Progmp_runtime
open Helpers

let conn ?(seed = 3) ?(scheduler = "default") ?(paths = Mptcp_exp.Scenarios.wifi_lte ())
    () =
  ignore (Schedulers.Specs.load_all ());
  let c = Connection.create ~seed ~paths () in
  Api.set_scheduler (Connection.sock c) scheduler;
  c

let suite =
  [
    ( "apps",
      [
        tc "cbr delivers the target volume" (fun () ->
            let c = conn () in
            Apps.Workload.cbr c ~start:0.1 ~stop:2.1 ~interval:0.1
              ~rate:(fun _ -> 1_000_000.0);
            Connection.run ~until:10.0 c;
            Alcotest.(check int) "2 MB streamed" 2_000_000
              (Connection.delivered_bytes c));
        tc "cbr publishes the rate in a register" (fun () ->
            let c = conn () in
            Apps.Workload.cbr ~signal_register:0 c ~start:0.1 ~stop:0.5
              ~interval:0.1 ~rate:(fun _ -> 123_456.0);
            Connection.run ~until:5.0 c;
            Alcotest.(check int) "register holds rate" 123_456
              (Api.get_register (Connection.sock c) 0));
        tc "bursty generates multiple bursts" (fun () ->
            let c = conn () in
            let rng = Rng.create 9 in
            Apps.Workload.bursty c ~rng ~start:0.1 ~stop:3.0 ~burst_bytes:10_000
              ~mean_gap:0.2;
            Connection.run ~until:20.0 c;
            Alcotest.(check bool) "several bursts" true
              (Connection.delivered_bytes c >= 50_000));
        tc "request_response period is respected" (fun () ->
            let c = conn () in
            Apps.Workload.request_response c ~start:0.0 ~stop:1.0 ~period:0.25
              ~size:500;
            Connection.run ~until:10.0 c;
            Alcotest.(check int) "4 requests" 2_000 (Connection.delivered_bytes c));
        tc "measure_flow reports completion" (fun () ->
            let mk_conn () = conn () in
            match Apps.Workload.measure_flow ~mk_conn ~size:50_000 () with
            | Some r ->
                Alcotest.(check bool) "fct positive" true (r.Apps.Workload.fct > 0.0);
                Alcotest.(check int) "goodput" 50_000 r.Apps.Workload.goodput_bytes;
                Alcotest.(check bool) "wire >= goodput" true
                  (r.Apps.Workload.wire_bytes >= 50_000)
            | None -> Alcotest.fail "flow did not complete");
        tc "measure_flows aggregates over seeds" (fun () ->
            let mk_conn ~seed = conn ~seed () in
            let mean_fct, mean_wire, completed =
              Apps.Workload.measure_flows ~mk_conn ~size:20_000 ~reps:3 ()
            in
            Alcotest.(check int) "all completed" 3 completed;
            Alcotest.(check bool) "fct positive" true (mean_fct > 0.0);
            Alcotest.(check bool) "wire positive" true (mean_wire > 0.0));
        tc "http2 page accounting" (fun () ->
            let page = Apps.Http2.optimized_page in
            let total = Apps.Http2.total_bytes page in
            let deferred = Apps.Http2.bytes_of_class page Apps.Http2.Deferred in
            Alcotest.(check bool) "more than half deferred" true
              (2 * deferred > total));
        tc "http2 page load produces milestones" (fun () ->
            let c = conn () in
            match Apps.Http2.load_page c Apps.Http2.optimized_page with
            | Some r ->
                Alcotest.(check bool) "dependency before initial view" true
                  (r.Apps.Http2.dependency_time <= r.Apps.Http2.initial_view_time);
                Alcotest.(check bool) "initial before full" true
                  (r.Apps.Http2.initial_view_time <= r.Apps.Http2.full_load_time
                  +. 1e-9);
                Alcotest.(check bool) "bytes accounted" true
                  (r.Apps.Http2.wifi_bytes + r.Apps.Http2.lte_bytes
                 >= Apps.Http2.total_bytes Apps.Http2.optimized_page)
            | None -> Alcotest.fail "page load incomplete");
        tc "http2 page load completes through loss bursts and outages"
          (fun () ->
            (* The page-load's dependency-aware scheduling must survive
               hostile network dynamics: the LTE path degrades to
               Gilbert–Elliott burst loss while WiFi flaps twice, with a
               mid-load outage on LTE for good measure. The invariant
               checker rides along: no packet loss at the meta level, no
               reordering escapes, every stream completes. *)
            let c = conn ~scheduler:"http2_aware" () in
            Faults.apply c
              (Faults.flap ~start:0.4 ~period:1.5 ~down_for:0.4 ~until:3.5
                 "wifi"
              @ [
                  Faults.step ~at:0.2 "lte"
                    (Faults.Loss_burst
                       { p_enter = 0.15; p_exit = 0.3; loss_bad = 0.5 });
                  Faults.step ~at:1.0 "lte" Faults.Link_down;
                  Faults.step ~at:1.6 "lte" Faults.Link_up;
                  Faults.step ~at:2.8 "lte" Faults.Loss_model_reset;
                ]);
            let checker = Invariants.attach c in
            (match Apps.Http2.load_page c Apps.Http2.optimized_page with
            | Some r ->
                Alcotest.(check bool) "all bytes arrived" true
                  (r.Apps.Http2.wifi_bytes + r.Apps.Http2.lte_bytes
                  >= Apps.Http2.total_bytes Apps.Http2.optimized_page);
                Alcotest.(check bool) "milestones ordered" true
                  (r.Apps.Http2.dependency_time
                   <= r.Apps.Http2.initial_view_time
                  && r.Apps.Http2.initial_view_time
                     <= r.Apps.Http2.full_load_time +. 1e-9)
            | None -> Alcotest.fail "page load incomplete under faults");
            Alcotest.(check int)
              (Fmt.str "invariants clean: %s"
                 (Option.value ~default:"" (Invariants.report checker)))
              0 (Invariants.total checker));
        tc "webserver serve uses the http2_aware scheduler" (fun () ->
            let c = conn () in
            (match Apps.Webserver.serve c Apps.Http2.optimized_page with
            | Some _ -> ()
            | None -> Alcotest.fail "incomplete");
            Alcotest.(check string) "scheduler" "http2_aware"
              (Api.scheduler_name (Connection.sock c)));
        tc "dash session meets deadlines on an adequate network" (fun () ->
            let c = conn ~scheduler:"target_deadline" () in
            let s =
              Apps.Dash.start ~period:0.5 ~count:8
                ~chunk_bytes:(fun _ -> 200_000)
                c
            in
            Connection.run ~until:30.0 c;
            let o = Apps.Dash.evaluate s in
            Alcotest.(check int) "no misses" 0 o.Apps.Dash.deadline_misses);
        tc "dash session misses deadlines when starved" (fun () ->
            (* both paths far too slow for the chunk rate *)
            let paths =
              Mptcp_exp.Scenarios.wifi_lte ~wifi_bw:50_000.0 ~lte_bw:50_000.0 ()
            in
            let c = conn ~paths ~scheduler:"target_deadline" () in
            let s =
              Apps.Dash.start ~period:0.5 ~count:6
                ~chunk_bytes:(fun _ -> 400_000)
                c
            in
            Connection.run ~until:60.0 c;
            let o = Apps.Dash.evaluate s in
            Alcotest.(check bool) "misses" true (o.Apps.Dash.deadline_misses > 0));
        tc "scenario wifi_lte has preferred wifi" (fun () ->
            match Mptcp_exp.Scenarios.wifi_lte () with
            | [ wifi; lte ] ->
                Alcotest.(check bool) "wifi active" false
                  wifi.Path_manager.backup;
                Alcotest.(check bool) "lte backup" true lte.Path_manager.backup
            | _ -> Alcotest.fail "expected two paths");
        tc "fluctuation changes wifi bandwidth" (fun () ->
            let c = conn () in
            let rng = Rng.create 5 in
            Mptcp_exp.Scenarios.fluctuate_wifi c ~rng ~until:2.0 ~low:1_000_000.0
              ~high:2_000_000.0 ();
            Connection.run ~until:3.0 c;
            let bw = Link.bandwidth (Connection.data_link c 0) in
            Alcotest.(check bool) "within band" true
              (bw >= 1_000_000.0 && bw <= 2_000_000.0));
        tc "metrics record a per-subflow time series" (fun () ->
            let c = conn () in
            let m = Mptcp_obs.Metrics.attach c ~interval:0.1 ~until:1.0 in
            Apps.Workload.bulk c ~at:0.1 ~bytes:500_000;
            Connection.run ~until:2.0 c;
            let samples = Mptcp_obs.Metrics.to_list m in
            Alcotest.(check int)
              "10 ticks x 2 subflows" 20 (List.length samples);
            (* goodputs are acked-byte deltas: they add up to the last
               tick's cumulative count *)
            List.iter
              (fun sbf ->
                let mine =
                  List.filter (fun s -> s.Mptcp_obs.Metrics.sbf = sbf) samples
                in
                let sum =
                  List.fold_left
                    (fun a s -> a +. (s.Mptcp_obs.Metrics.goodput_bps *. 0.1))
                    0.0 mine
                in
                let last = List.nth mine (List.length mine - 1) in
                Alcotest.(check (float 1e-3))
                  (Fmt.str "subflow %d goodput sums to acked bytes" sbf)
                  (float_of_int last.Mptcp_obs.Metrics.bytes_acked)
                  sum)
              [ 0; 1 ];
            Alcotest.(check bool)
              "delivery progressed" true
              ((List.nth samples 19).Mptcp_obs.Metrics.delivered_bytes > 0));
        tc "statistics helpers" (fun () ->
            Alcotest.(check (float 1e-9)) "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
            Alcotest.(check (float 1e-9)) "median" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
            Alcotest.(check (float 1e-9)) "p0" 1.0 (Stats.percentile 0.0 [ 3.0; 1.0 ]);
            Alcotest.(check (float 1e-9)) "p100" 3.0 (Stats.percentile 1.0 [ 3.0; 1.0 ]);
            Alcotest.(check (float 1e-9)) "stddev" 1.0 (Stats.stddev [ 1.0; 2.0; 3.0 ]);
            Alcotest.(check (float 1e-9)) "empty mean" 0.0 (Stats.mean []));
      ] );
  ]
