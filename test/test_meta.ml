(** Meta-socket tests: end-to-end queue-model invariants under random
    loss ("a packet is never lost"; "acknowledged packets are removed
    from all queues"), in-order delivery, data-ack cleanup, action
    application corner cases, and the reinjection path. *)

open Mptcp_sim
open Progmp_runtime
open Helpers

let two_path_conn ?(seed = 1) ?(loss = 0.0) ?(scheduler = "default")
    ?(delivery_mode = Tcp_subflow.Immediate) () =
  ignore (Schedulers.Specs.load_all ());
  let paths =
    Mptcp_exp.Scenarios.mininet_two_subflows ~rtt_ratio:3.0 ~loss ()
  in
  let conn = Connection.create ~seed ~delivery_mode ~paths () in
  Api.set_scheduler (Connection.sock conn) scheduler;
  conn

let check_clean_completion conn ~written =
  let meta = conn.Connection.meta in
  Alcotest.(check bool) "all delivered" true (Meta_socket.all_delivered meta);
  Alcotest.(check int) "delivered bytes" written (Connection.delivered_bytes conn);
  (* acknowledged packets leave all queues *)
  let env = Meta_socket.env meta in
  Alcotest.(check int) "Q drained" 0 (Pqueue.length env.Env.q);
  Alcotest.(check int) "QU drained" 0 (Pqueue.length env.Env.qu);
  Alcotest.(check int) "RQ drained" 0 (Pqueue.length env.Env.rq);
  Alcotest.(check int) "no data dropped" 0 meta.Meta_socket.data_dropped

let in_order_delivery_prop =
  QCheck2.Test.make ~name:"delivery is exactly-once and in order under loss"
    ~count:25
    QCheck2.Gen.(pair (int_range 0 100) (int_range 0 8))
    (fun (seed, loss_pct) ->
      let loss = float_of_int loss_pct /. 100.0 in
      let conn = two_path_conn ~seed ~loss () in
      let order = ref [] in
      conn.Connection.meta.Meta_socket.on_deliver <-
        (fun ~seq ~size:_ ~time:_ -> order := seq :: !order);
      Connection.write_at conn ~time:0.1 200_000;
      Connection.run ~until:120.0 conn;
      let got = List.rev !order in
      got = List.init (List.length got) Fun.id
      && Meta_socket.all_delivered conn.Connection.meta)

let suite =
  [
    ( "meta-socket",
      [
        tc "bulk transfer completes cleanly" (fun () ->
            let conn = two_path_conn () in
            Connection.write_at conn ~time:0.1 500_000;
            Connection.run ~until:60.0 conn;
            check_clean_completion conn ~written:500_000);
        tc "bulk transfer with loss completes cleanly" (fun () ->
            let conn = two_path_conn ~loss:0.03 () in
            Connection.write_at conn ~time:0.1 500_000;
            Connection.run ~until:120.0 conn;
            check_clean_completion conn ~written:500_000);
        tc "two-layer receiver also completes" (fun () ->
            let conn =
              two_path_conn ~loss:0.03 ~delivery_mode:Tcp_subflow.Two_layer ()
            in
            Connection.write_at conn ~time:0.1 300_000;
            Connection.run ~until:120.0 conn;
            check_clean_completion conn ~written:300_000);
        tc "every zoo scheduler completes a lossy transfer" (fun () ->
            List.iter
              (fun (name, _) ->
                let conn = two_path_conn ~loss:0.02 ~scheduler:name () in
                (* give intent registers sensible values so the
                   preference-aware schedulers make progress *)
                Api.set_register (Connection.sock conn) 0 2_000_000;
                Connection.write_at conn ~time:0.1 150_000;
                Connection.run ~until:200.0 conn;
                if not (Meta_socket.all_delivered conn.Connection.meta) then
                  Alcotest.failf "%s did not deliver everything" name)
              Schedulers.Specs.all);
        tc "delivery times are monotone in seq" (fun () ->
            let conn = two_path_conn ~loss:0.02 () in
            Connection.write_at conn ~time:0.1 200_000;
            Connection.run ~until:60.0 conn;
            let meta = conn.Connection.meta in
            let last = ref 0.0 in
            for seq = 0 to meta.Meta_socket.next_seq - 1 do
              match Meta_socket.delivery_time_of meta seq with
              | Some t ->
                  Alcotest.(check bool) "monotone" true (t >= !last);
                  last := t
              | None -> Alcotest.failf "segment %d undelivered" seq
            done);
        tc "redundant scheduler sends duplicates, receiver dedups" (fun () ->
            let conn = two_path_conn ~scheduler:"redundant" () in
            Connection.write_at conn ~time:0.1 100_000;
            Connection.run ~until:60.0 conn;
            let meta = conn.Connection.meta in
            Alcotest.(check bool) "all delivered" true (Meta_socket.all_delivered meta);
            Alcotest.(check int) "delivered exactly once" meta.Meta_socket.next_seq
              meta.Meta_socket.delivered_segments;
            let wire =
              List.fold_left
                (fun a m -> a + m.Path_manager.subflow.Tcp_subflow.bytes_sent)
                0 conn.Connection.paths
            in
            (* full 2x is not reached: fast-path data-acks remove packets
               from QU before the slow subflow sends its copy, exactly as
               the paper describes (§5.1) *)
            Alcotest.(check bool) "wire bytes >1.25x goodput" true
              (wire > 125_000);
            Alcotest.(check bool) "more pushes than segments" true
              (meta.Meta_socket.pushes > meta.Meta_socket.next_seq));
        tc "push to vanished subflow returns packet to Q" (fun () ->
            let conn = two_path_conn () in
            let meta = conn.Connection.meta in
            let env = Meta_socket.env meta in
            let pkt = Packet.create ~seq:0 ~size:100 ~now:0.0 () in
            Meta_socket.apply_action meta
              (Action.Push { sbf_id = 99; pkt });
            Alcotest.(check int) "packet back in Q" 1 (Pqueue.length env.Env.q));
        tc "fct helper reports completion" (fun () ->
            let conn = two_path_conn () in
            Connection.write_at conn ~time:0.1 50_000;
            Connection.run ~until:30.0 conn;
            let meta = conn.Connection.meta in
            match Meta_socket.fct meta ~first:0 ~last:(meta.Meta_socket.next_seq - 1) with
            | Some t -> Alcotest.(check bool) "positive" true (t > 0.1)
            | None -> Alcotest.fail "fct unavailable");
        tc "fct is None when incomplete" (fun () ->
            let conn = two_path_conn () in
            Connection.write_at conn ~time:0.1 50_000;
            Connection.run ~until:0.15 conn;
            let meta = conn.Connection.meta in
            Alcotest.(check bool) "incomplete" true
              (Meta_socket.fct meta ~first:0 ~last:(meta.Meta_socket.next_seq - 1)
              = None));
        tc "losses populate the reinjection queue" (fun () ->
            (* kill one path mid-transfer so its in-flight packets land
               in RQ and are reinjected on the other *)
            let conn = two_path_conn () in
            Connection.write_at conn ~time:0.1 400_000;
            let m0 = List.nth conn.Connection.paths 0 in
            Connection.fail_path conn m0 ~at:0.15;
            Connection.run ~until:120.0 conn;
            Alcotest.(check bool) "all delivered despite path failure" true
              (Meta_socket.all_delivered conn.Connection.meta));
        tc "write segments data correctly" (fun () ->
            let conn = two_path_conn () in
            let seqs = ref [] in
            Connection.at conn ~time:0.1 (fun () ->
                seqs := Connection.write conn 10_000);
            Connection.run ~until:10.0 conn;
            Alcotest.(check int) "ceil(10000/1448) segments" 7
              (List.length !seqs);
            Alcotest.(check int) "delivered" 10_000
              (Connection.delivered_bytes conn));
        tc "packet properties propagate to packets" (fun () ->
            let conn = two_path_conn () in
            let env = Meta_socket.env conn.Connection.meta in
            Connection.at conn ~time:0.0 (fun () ->
                ignore (Connection.write ~props:[| 3; 0; 0; 0 |] conn 100));
            Connection.run ~until:0.001 conn;
            (* packet is either still in Q or already in QU *)
            let all = Pqueue.to_list env.Env.q @ Pqueue.to_list env.Env.qu in
            match all with
            | p :: _ -> Alcotest.(check int) "prop1" 3 (Packet.user_prop p 0)
            | [] -> Alcotest.fail "no packet found");
        QCheck_alcotest.to_alcotest in_order_delivery_prop;
      ] );
  ]
