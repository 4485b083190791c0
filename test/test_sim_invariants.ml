(** Simulator-wide invariants (DESIGN.md §6), checked across a random
    sweep of network conditions and schedulers:

    - conservation of data: delivered byte stream equals the written
      stream, in order, exactly once;
    - cwnd never collapses below one segment;
    - SRTT stays within [path RTT, path RTT + worst-case queueing + RTO
      slack];
    - after completion, all scheduler queues drain and no packet is
      marked dropped without having been sent. *)

open Mptcp_sim
open Progmp_runtime

let ( let* ) = QCheck2.Gen.( let* )

let gen_config =
  let open QCheck2.Gen in
  let* seed = int_range 0 10_000 in
  let* loss_pct = int_range 0 6 in
  let* rtt_ratio = int_range 1 6 in
  let* bw_kb = int_range 300 3_000 in
  let* size_kb = int_range 10 300 in
  let* sched = oneofl [ "default"; "round_robin"; "redundant_if_no_q"; "redundant" ] in
  return (seed, float_of_int loss_pct /. 100.0, float_of_int rtt_ratio, float_of_int bw_kb *. 1000.0, size_kb * 1000, sched)

let sweep =
  QCheck2.Test.make ~name:"simulator invariants hold across conditions"
    ~count:40 gen_config
    (fun (seed, loss, rtt_ratio, bandwidth, size, sched) ->
      ignore (Schedulers.Specs.load_all ());
      let base_rtt = 0.02 in
      let paths =
        Mptcp_exp.Scenarios.mininet_two_subflows ~bandwidth ~base_rtt ~rtt_ratio
          ~loss ()
      in
      let conn = Connection.create ~seed ~paths () in
      Api.set_scheduler (Connection.sock conn) sched;
      let order = ref [] in
      conn.Connection.meta.Meta_socket.on_deliver <-
        (fun ~seq ~size:_ ~time:_ -> order := seq :: !order);
      let checker = Invariants.attach conn in
      Connection.write_at conn ~time:0.1 size;
      Connection.run ~until:300.0 conn;
      let meta = conn.Connection.meta in
      let delivered_in_order =
        let got = List.rev !order in
        got = List.init (List.length got) Fun.id
      in
      let complete = Meta_socket.all_delivered meta in
      let conserved = Connection.delivered_bytes conn = size in
      let queues_drained =
        let env = Meta_socket.env meta in
        Pqueue.is_empty env.Env.q && Pqueue.is_empty env.Env.qu
        && Pqueue.is_empty env.Env.rq
      in
      let sane_subflows =
        List.for_all
          (fun m ->
            let s = m.Path_manager.subflow in
            let cwnd_ok = s.Tcp_subflow.f.cwnd >= 1.0 in
            let link_rtt = 2.0 *. Link.delay m.Path_manager.data_link in
            let srtt_ok =
              s.Tcp_subflow.rtt_samples = 0
              || (s.Tcp_subflow.f.srtt >= 0.9 *. link_rtt
                 && s.Tcp_subflow.f.srtt
                    <= link_rtt +. 2.0
                       +. (2.0
                          *. float_of_int
                               m.Path_manager.data_link.Link.params
                                 .Link.buffer_bytes
                          /. bandwidth))
            in
            cwnd_ok && srtt_ok)
          conn.Connection.paths
      in
      let no_data_dropped = meta.Meta_socket.data_dropped = 0 in
      if
        not
          (delivered_in_order && complete && conserved && queues_drained
         && sane_subflows && no_data_dropped
          && Invariants.ok checker)
      then
        QCheck2.Test.fail_reportf
          "violation: sched=%s seed=%d loss=%.2f ratio=%.0f bw=%.0f size=%d \
           (in_order=%b complete=%b conserved=%b drained=%b sane=%b \
           nodrop=%b)@\nchecker: %s"
          sched seed loss rtt_ratio bandwidth size delivered_in_order complete
          conserved queues_drained sane_subflows no_data_dropped
          (Option.value ~default:"ok" (Invariants.report checker))
      else true)

let suite = [ ("sim-invariants", [ QCheck_alcotest.to_alcotest sweep ]) ]

(* Failure injection: subflows die mid-transfer at random times; as long
   as one path survives, everything must still be delivered in order,
   exactly once. *)
let gen_failure_config =
  let open QCheck2.Gen in
  let* seed = int_range 0 10_000 in
  let* n = int_range 2 4 in
  let* kill = int_range 1 (n - 1) in
  let* kill_at = float_range 0.15 1.5 in
  let* loss_pct = int_range 0 4 in
  let* sched = oneofl [ "default"; "redundant_if_no_q"; "round_robin" ] in
  return (seed, n, kill, kill_at, float_of_int loss_pct /. 100.0, sched)

let failure_sweep =
  QCheck2.Test.make ~name:"path failures never lose or reorder data"
    ~count:25 gen_failure_config
    (fun (seed, n, kill, kill_at, loss, sched) ->
      ignore (Schedulers.Specs.load_all ());
      let paths =
        List.init n (fun i ->
            Path_manager.symmetric
              ~name:(Fmt.str "p%d" i)
              {
                Link.default_params with
                Link.bandwidth = 1_000_000.0;
                delay = 0.005 *. float_of_int (i + 1);
                loss;
              })
      in
      let conn = Connection.create ~seed ~paths () in
      Progmp_runtime.Api.set_scheduler (Connection.sock conn) sched;
      (* kill [kill] paths at staggered times, always leaving at least
         one alive *)
      List.iteri
        (fun i m ->
          if i < kill then
            Connection.fail_path conn m
              ~at:(kill_at +. (0.2 *. float_of_int i)))
        conn.Connection.paths;
      let order = ref [] in
      conn.Connection.meta.Meta_socket.on_deliver <-
        (fun ~seq ~size:_ ~time:_ -> order := seq :: !order);
      let checker = Invariants.attach conn in
      Connection.write_at conn ~time:0.1 400_000;
      Connection.run ~until:300.0 conn;
      let got = List.rev !order in
      let ok =
        Meta_socket.all_delivered conn.Connection.meta
        && Connection.delivered_bytes conn = 400_000
        && got = List.init (List.length got) Fun.id
        && Invariants.ok checker
      in
      if not ok then
        QCheck2.Test.fail_reportf
          "failure config: seed=%d n=%d kill=%d at=%.2f loss=%.2f sched=%s            delivered=%d complete=%b checker=%s"
          seed n kill kill_at loss sched
          (Connection.delivered_bytes conn)
          (Meta_socket.all_delivered conn.Connection.meta)
          (Option.value ~default:"ok" (Invariants.report checker))
      else true)

let failure_suite =
  [ ("sim-failures", [ QCheck_alcotest.to_alcotest failure_sweep ]) ]

(* Random fault scripts — flapping outages on one path, bandwidth
   changes, moderate Bernoulli loss plus a burst-loss episode on the
   other, optionally a subflow fail/reestablish cycle — all jittered
   from an explicit seed. Whatever the script, the attached invariant
   checker must stay silent and every byte must arrive exactly once, in
   order. *)
let gen_fault_script_config =
  let open QCheck2.Gen in
  let* seed = int_range 0 10_000 in
  let* sched = oneofl [ "default"; "redundant"; "target_rtt" ] in
  let* size_kb = int_range 100 300 in
  let* period_ms = int_range 900 2_000 in
  let* down_ms = int_range 100 800 in
  let* bw_kb = int_range 400 2_000 in
  let* loss_pct = int_range 0 3 in
  let* do_fail = bool in
  let* jitter_seed = int_range 0 1_000 in
  return
    (seed, sched, size_kb * 1000, float_of_int period_ms /. 1000.0,
     float_of_int down_ms /. 1000.0, float_of_int bw_kb *. 1000.0,
     float_of_int loss_pct /. 100.0, do_fail, jitter_seed)

let fault_sweep =
  QCheck2.Test.make
    ~name:"invariants hold under random fault scripts" ~count:25
    gen_fault_script_config
    (fun (seed, sched, size, period, down_for, bw, loss, do_fail, jitter_seed) ->
      ignore (Schedulers.Specs.load_all ());
      let paths = Mptcp_exp.Scenarios.mininet_two_subflows ~rtt_ratio:2.0 () in
      let conn = Connection.create ~seed ~paths () in
      Api.set_scheduler (Connection.sock conn) sched;
      let script =
        Faults.jitter ~seed:jitter_seed ~amount:0.05
          (Faults.flap ~start:0.3 ~period ~down_for ~until:3.0 "sbf2"
          @ [
              Faults.step ~at:0.4 "sbf1" (Faults.Set_bandwidth bw);
              Faults.step ~at:0.8 "sbf1" (Faults.Set_loss loss);
              Faults.step ~at:1.0 "sbf1"
                (Faults.Loss_burst
                   { p_enter = 0.05; p_exit = 0.3; loss_bad = 0.3 });
              Faults.step ~at:2.0 "sbf1" Faults.Loss_model_reset;
              Faults.step ~at:2.2 "sbf1" (Faults.Set_loss 0.0);
            ]
          @
          if do_fail then
            [
              Faults.step ~at:1.2 "sbf1" Faults.Subflow_fail;
              Faults.step ~at:2.5 "sbf1" Faults.Subflow_reestablish;
            ]
          else [])
      in
      Faults.apply conn script;
      let order = ref [] in
      conn.Connection.meta.Meta_socket.on_deliver <-
        (fun ~seq ~size:_ ~time:_ -> order := seq :: !order);
      let checker = Invariants.attach conn in
      Connection.write_at conn ~time:0.1 size;
      Connection.run ~until:300.0 conn;
      let got = List.rev !order in
      let ok =
        Meta_socket.all_delivered conn.Connection.meta
        && Connection.delivered_bytes conn = size
        && got = List.init (List.length got) Fun.id
        && Invariants.ok checker
      in
      if not ok then
        QCheck2.Test.fail_reportf
          "fault script config: seed=%d sched=%s size=%d period=%.2f \
           down=%.2f bw=%.0f loss=%.2f fail=%b jitter=%d delivered=%d \
           complete=%b checker=%s"
          seed sched size period down_for bw loss do_fail jitter_seed
          (Connection.delivered_bytes conn)
          (Meta_socket.all_delivered conn.Connection.meta)
          (Option.value ~default:"ok" (Invariants.report checker))
      else true)

let fault_suite =
  [ ("sim-fault-scripts", [ QCheck_alcotest.to_alcotest fault_sweep ]) ]

(* Queue hygiene: a hook chained after the meta socket's data-ack
   cleanup plants one packet below the new cumulative ack in QU, as a
   cleanup that missed it would leave it. The checker must name it; the
   same run without the hook stays clean. *)
let run_with_stale_packet ~plant =
  ignore (Schedulers.Specs.load_all ());
  let paths = Mptcp_exp.Scenarios.mininet_two_subflows () in
  let conn = Connection.create ~seed:1 ~paths () in
  let checker = Invariants.attach conn in
  let qu = (Meta_socket.env conn.Connection.meta).Env.qu in
  let planted = ref None in
  List.iter
    (fun m ->
      let s = m.Path_manager.subflow in
      let cleanup = s.Tcp_subflow.on_data_ack in
      s.Tcp_subflow.on_data_ack <-
        (fun upto ->
          cleanup upto;
          if plant && upto > 10 && !planted = None then begin
            planted := Some (upto - 1);
            Pqueue.push_back qu
              (Packet.create ~seq:(upto - 1) ~size:1 ~now:0.0 ())
          end))
    conn.Connection.paths;
  Connection.write_at conn ~time:0.1 100_000;
  Connection.run ~until:60.0 conn;
  (checker, !planted)

let hygiene_suite =
  [
    ( "sim-queue-hygiene",
      [
        Alcotest.test_case "a stale packet left in QU is reported" `Quick
          (fun () ->
            let clean, _ = run_with_stale_packet ~plant:false in
            Alcotest.(check (option string))
              "clean run" None (Invariants.report clean);
            match run_with_stale_packet ~plant:true with
            | _, None -> Alcotest.fail "the hook never planted a packet"
            | checker, Some seq ->
                let suffix =
                  Fmt.str "meta: seq %d still in QU after data ack %d" seq (seq + 1)
                in
                let report = Invariants.report checker in
                Alcotest.(check bool)
                  (Fmt.str "reported: %s" (Option.value ~default:"nothing" report))
                  true
                  (List.exists (String.ends_with ~suffix)
                     (Invariants.violations checker)));
      ] );
  ]
