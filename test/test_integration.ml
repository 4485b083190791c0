(** Cross-cutting integration scenarios: several subsystems interacting
    at once (many subflows, preferences, handover during an HTTP/2 load,
    redundancy with unordered delivery, streaming under fluctuation,
    backend choice under simulation). Each asserts a high-level outcome
    rather than internals. *)

open Mptcp_sim
open Progmp_runtime
open Helpers

let load () = ignore (Schedulers.Specs.load_all ())

let suite =
  [
    ( "integration",
      [
        tc "four heterogeneous subflows aggregate bandwidth" (fun () ->
            load ();
            let paths =
              List.init 4 (fun i ->
                  Path_manager.symmetric
                    ~name:(Fmt.str "p%d" i)
                    {
                      Link.default_params with
                      Link.bandwidth = 500_000.0 +. (250_000.0 *. float_of_int i);
                      delay = 0.005 *. float_of_int (i + 1);
                    })
            in
            let conn = Connection.create ~seed:2 ~paths () in
            Apps.Workload.bulk conn ~at:0.1 ~bytes:6_000_000;
            Connection.run ~until:60.0 conn;
            let meta = conn.Connection.meta in
            (match Meta_socket.fct meta ~first:0 ~last:(meta.Meta_socket.next_seq - 1) with
            | Some fct ->
                (* aggregate ~2.75 MB/s: 6 MB should finish well under
                   what the fastest single path (1.25 MB/s) would need *)
                Alcotest.(check bool)
                  (Fmt.str "fct %.2f < 4.0 s" fct)
                  true (fct < 4.0)
            | None -> Alcotest.fail "incomplete");
            (* every subflow carried a meaningful share *)
            List.iter
              (fun m ->
                Alcotest.(check bool) "subflow used" true
                  (m.Path_manager.subflow.Tcp_subflow.bytes_sent > 200_000))
              conn.Connection.paths);
        tc "subflow arriving mid-transfer gets used" (fun () ->
            load ();
            let paths = Mptcp_exp.Scenarios.mininet_two_subflows () in
            let conn = Connection.create ~seed:3 ~paths:[ List.hd paths ] () in
            Apps.Workload.bulk conn ~at:0.1 ~bytes:3_000_000;
            let late =
              Connection.add_path conn ~at:0.5 (List.nth paths 1)
            in
            Connection.run ~until:60.0 conn;
            Alcotest.(check bool) "complete" true
              (Meta_socket.all_delivered conn.Connection.meta);
            Alcotest.(check bool) "late subflow carried data" true
              (late.Path_manager.subflow.Tcp_subflow.bytes_sent > 100_000));
        tc "handover in the middle of an HTTP/2 page load" (fun () ->
            load ();
            let paths = Mptcp_exp.Scenarios.wifi_lte ~lte_backup:false () in
            let conn = Connection.create ~seed:5 ~paths () in
            Connection.at conn ~time:0.25 (fun () ->
                Link.set_loss (Connection.data_link conn 0) 1.0);
            Connection.fail_path conn (List.hd conn.Connection.paths) ~at:0.4;
            (match Apps.Http2.load_page ~at:0.2 conn Apps.Http2.optimized_page with
            | Some r ->
                Alcotest.(check bool) "page completes over LTE alone" true
                  (r.Apps.Http2.full_load_time < 10.0)
            | None -> Alcotest.fail "page load incomplete"));
        tc "redundant scheduler with unordered delivery minimizes latency"
          (fun () ->
            load ();
            let run ~scheduler ~ordering =
              let paths =
                Mptcp_exp.Scenarios.mininet_two_subflows ~rtt_ratio:4.0 ~loss:0.05 ()
              in
              let conn = Connection.create ~seed:7 ~ordering ~paths () in
              Api.set_scheduler (Connection.sock conn) scheduler;
              let lat = ref [] in
              let pending = Hashtbl.create 64 in
              conn.Connection.meta.Meta_socket.on_deliver <-
                (fun ~seq ~size:_ ~time ->
                  match Hashtbl.find_opt pending seq with
                  | Some t0 -> lat := (time -. t0) :: !lat
                  | None -> ());
              let rec wr t =
                if t < 5.0 then
                  Connection.at conn ~time:t (fun () ->
                      List.iter
                        (fun s -> Hashtbl.replace pending s (Connection.now conn))
                        (Connection.write conn 1448);
                      wr (t +. 0.05))
              in
              wr 0.2;
              Connection.run ~until:60.0 conn;
              Stats.percentile 0.95 !lat
            in
            let plain = run ~scheduler:"default" ~ordering:Meta_socket.Ordered in
            let best =
              run ~scheduler:"redundant" ~ordering:Meta_socket.Unordered
            in
            Alcotest.(check bool)
              (Fmt.str "redundant+unordered p95 %.1f ms < default+ordered %.1f ms"
                 (best *. 1e3) (plain *. 1e3))
              true (best < plain));
        tc "compiled backend drives a full simulation identically" (fun () ->
            load ();
            let run install =
              (match Scheduler.find "redundant_if_no_q" with
              | Some s -> install s
              | None -> Alcotest.fail "scheduler missing");
              let paths =
                Mptcp_exp.Scenarios.mininet_two_subflows ~rtt_ratio:3.0 ~loss:0.02 ()
              in
              let conn = Connection.create ~seed:11 ~paths () in
              Api.set_scheduler (Connection.sock conn) "redundant_if_no_q";
              Connection.write_at conn ~time:0.1 300_000;
              Connection.run ~until:120.0 conn;
              ( Connection.delivered_bytes conn,
                conn.Connection.meta.Meta_socket.pushes,
                List.map snd (Connection.bytes_sent_per_subflow conn) )
            in
            Progmp_compiler.Compile.register_engines ();
            let interp = run (fun s -> Scheduler.set_engine s "interpreter") in
            let threaded = run (fun s -> Scheduler.set_engine s "threaded") in
            let aot = run (fun s -> Scheduler.set_engine s "aot") in
            Alcotest.(check bool) "threaded identical" true (interp = threaded);
            Alcotest.(check bool) "aot identical" true (interp = aot));
        tc "per-packet intents steer individual packets" (fun () ->
            load ();
            (* packets marked PROP1=1 ride the fastest subflow only *)
            let paths =
              Mptcp_exp.Scenarios.mininet_two_subflows ~rtt_ratio:4.0 ()
            in
            let conn = Connection.create ~seed:13 ~paths () in
            Api.set_scheduler (Connection.sock conn) "http2_aware";
            let critical = ref [] in
            Connection.at conn ~time:0.1 (fun () ->
                ignore (Connection.write ~props:[| 2; 0; 0; 0 |] conn 50_000);
                critical := Connection.write ~props:[| 1; 0; 0; 0 |] conn 5_000;
                ignore (Connection.write ~props:[| 2; 0; 0; 0 |] conn 50_000));
            Connection.run ~until:60.0 conn;
            let meta = conn.Connection.meta in
            Alcotest.(check bool) "complete" true (Meta_socket.all_delivered meta);
            (* the critical packets were delivered quickly despite being
               written in the middle of the bulk *)
            List.iter
              (fun seq ->
                match Meta_socket.delivery_time_of meta seq with
                | Some t ->
                    Alcotest.(check bool)
                      (Fmt.str "critical seq %d delivered at %.3f" seq t)
                      true
                      (t < 0.35)
                | None -> Alcotest.fail "critical packet missing")
              !critical);
        tc "registers steer a running connection (mode flip)" (fun () ->
            load ();
            (* compensating only acts when R2 = 1: flip it mid-connection *)
            let paths =
              Mptcp_exp.Scenarios.mininet_two_subflows ~rtt_ratio:6.0 ~base_rtt:0.02 ()
            in
            let conn = Connection.create ~seed:17 ~paths () in
            Api.set_scheduler (Connection.sock conn) "compensating";
            Connection.write_at conn ~time:0.1 40_000;
            Connection.at conn ~time:0.12 (fun () ->
                Api.set_register (Connection.sock conn) 1 1;
                Connection.notify_scheduler conn);
            Connection.run ~until:60.0 conn;
            let wire =
              List.fold_left
                (fun a m -> a + m.Path_manager.subflow.Tcp_subflow.bytes_sent)
                0 conn.Connection.paths
            in
            Alcotest.(check bool) "compensation retransmitted extra copies"
              true (wire > 44_000));
      ] );
  ]
