(** Connection recycling: a fleet slot reuses one connection shell for
    every flow it hosts. A recycled shell must be indistinguishable from
    a freshly built connection, the retired flow's events still in
    flight must not reach the next flow, the scheduler must run only
    for executions the fleet counts, and a warm-slot arrival must stay
    within a small allocation budget. *)

open Mptcp_sim
open Progmp_runtime
open Helpers

let load () =
  Progmp_compiler.Compile.register_engines ();
  ignore (Schedulers.Specs.load_all ());
  match Scheduler.find "default" with Some s -> s | None -> assert false

(* ---------- observable state ---------- *)

let view_fields (v : Subflow_view.t) =
  let open Subflow_view in
  Fmt.str
    "id=%d rtt=%d rtt_avg=%d rtt_var=%d cwnd=%d ssthresh=%d infl=%d \
     queued=%d lost=%d backup=%b tsq=%b lossy=%b rto=%d tput=%d mss=%d \
     rwnd=%d"
    v.id v.rtt_us v.rtt_avg_us v.rtt_var_us v.cwnd v.ssthresh v.skbs_in_flight
    v.queued v.lost_skbs v.is_backup v.tsq_throttled v.lossy v.rto_us
    v.throughput_bps v.mss v.receive_window_bytes

let subflow_fields (s : Tcp_subflow.t) =
  let open Tcp_subflow in
  [
    view_fields (view s);
    Fmt.str
      "established=%b cwnd=%h ssthresh=%h snd_nxt=%d snd_una=%d infl=%d \
       sq_len=%d sq_head=%d dupacks=%d recover=%d"
      s.established s.f.cwnd s.f.ssthresh s.snd_nxt s.snd_una s.infl_count
      s.sq_len s.sq_head s.dupacks s.recover;
    Fmt.str "srtt=%h rttvar=%h rtt_avg=%h samples=%d rto=%h lost=%d"
      s.f.srtt s.f.rttvar s.f.rtt_avg s.rtt_samples s.rto s.lost_skbs;
    Fmt.str "rcv_expected=%d rcv_ooo=%d" s.rcv_expected
      (Hashtbl.length s.rcv_ooo);
    Fmt.str "segs_sent=%d segs_retx=%d bytes_sent=%d bytes_acked=%d"
      s.segs_sent s.segs_retx s.bytes_sent s.bytes_acked;
    Fmt.str "tsq_head=%d tsq_len=%d tsq_bytes=%d" s.tsq_head s.tsq_len
      s.tsq_bytes;
    Fmt.str "rate_t=%h rate_bytes=%d rate_ewma=%h rate_samples=%d"
      s.f.rate_anchor_t s.rate_anchor_bytes s.f.rate_ewma
      s.rate_len;
    Fmt.str "backup=%b forced_lossy=%b rto_armed=%b tsq_armed=%b" s.is_backup
      s.forced_lossy
      (Eventq.timer_armed s.rto_timer)
      (Eventq.timer_armed s.tsq_timer);
  ]

let env_fields (e : Env.t) =
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  [
    Fmt.str "q=%d qu=%d rq=%d" (Pqueue.length e.Env.q) (Pqueue.length e.Env.qu)
      (Pqueue.length e.Env.rq);
    Fmt.str "registers=%s" (ints e.Env.registers);
    Fmt.str "snapshot=%d actions=%d popped=%d"
      (Array.length e.Env.subflows)
      e.Env.num_actions e.Env.num_popped;
    Fmt.str "generation=%d sbf_gen=%s reads=%d writes=%d" e.Env.generation
      (ints e.Env.sbf_gen) e.Env.reg_reads e.Env.reg_writes;
  ]

let connection_fields (c : Connection.t) =
  let m = c.Connection.meta in
  let open Meta_socket in
  [
    Fmt.str "next_seq=%d data_una=%d compressed=%b scheduling=%b" m.next_seq
      m.data_una m.compressed m.scheduling;
    Fmt.str "rcv_expected=%d rcv_ooo=%d rcv_ooo_bytes=%d rwnd=%d"
      m.rcv_expected (Hashtbl.length m.rcv_ooo) m.rcv_ooo_bytes (rwnd_bytes m);
    Fmt.str
      "delivery_log=%d delivered=%d/%d app=%d pushes=%d drops=%d dropped=%d \
       executions=%d pool_pkts=%d"
      (Hashtbl.length m.delivery_time)
      m.delivered_bytes m.delivered_segments m.app_segments m.pushes m.drops
      m.data_dropped m.sched_executions (Array_stack.length m.pool_pkts);
    Fmt.str "props=%s scheduler=%s"
      (String.concat ","
         (Array.to_list (Array.map string_of_int m.sock.Api.default_props)))
      (Api.scheduler_name m.sock);
    Fmt.str "subflows=%d paths=%d" (List.length m.subflows)
      (List.length c.Connection.paths);
  ]
  @ env_fields (env m)
  @ List.concat_map
      (fun p -> subflow_fields p.Path_manager.subflow)
      c.Connection.paths

(* Ring and queue capacities a recycled shell keeps: bounded by the
   retention caps, whatever the previous flow grew them to. *)
let capacities_bounded (c : Connection.t) =
  let e = Meta_socket.env c.Connection.meta in
  List.for_all
    (fun q -> Pqueue.capacity q <= Pqueue.retained_capacity)
    [ e.Env.q; e.Env.qu; e.Env.rq ]
  && List.for_all
       (fun p ->
         let s = p.Path_manager.subflow in
         let cap = Tcp_subflow.retained_capacity in
         Array.length s.Tcp_subflow.infl <= cap
         && Array.length s.Tcp_subflow.sq <= cap
         && Array.length s.Tcp_subflow.tsq_time <= cap
         && Array.length s.Tcp_subflow.tsq_size <= cap)
       c.Connection.paths

let links clock ~seed paths =
  List.mapi
    (fun i spec ->
      let data =
        Link.create ~params:spec.Path_manager.up ~clock
          ~rng:(Rng.stream ~seed (-1 - (2 * i)))
          ()
      and ack =
        Link.create ~params:spec.Path_manager.down ~clock
          ~rng:(Rng.stream ~seed (-2 - (2 * i)))
          ()
      in
      { spec with Path_manager.links = Some (data, ack) })
    paths

let diff a b =
  let rec go i = function
    | x :: xs, y :: ys ->
        if String.equal x y then go (i + 1) (xs, ys)
        else Some (Fmt.str "line %d: recycled %S, fresh %S" i x y)
    | [], [] -> None
    | _ -> Some "different field counts"
  in
  go 0 (a, b)

(* A flow of random size over random-loss paths runs for a random time
   (often still in flight), is scrapped and its connection recycled;
   the recycled connection must equal one built fresh with the new seed
   at the same instant — and still equal it after the old flow's stale
   events have drained while both complete their handshakes. *)
let recycle_equals_fresh =
  QCheck2.Test.make ~name:"a recycled connection equals a fresh one"
    ~count:40
    ~print:(fun (size, loss, cut, seed) ->
      Fmt.str "size=%d loss=%g cut=%g seed=%d" size loss cut seed)
    QCheck2.Gen.(
      quad (int_range 1 400_000) (float_range 0.0 0.05)
        (float_range 0.005 2.0) (int_range 0 10_000))
    (fun (size, loss, cut, seed) ->
      let sched = load () in
      let clock = Eventq.create () in
      let packet_pool = Packet.Pool.create () in
      let entry_pool = Tcp_subflow.entry_pool () in
      let paths = Mptcp_exp.Sweep.fleet_group_paths ~loss in
      let build ~links ~seed =
        let c =
          Connection.create ~seed ~entry_pool ~packet_pool ~clock ~paths:links
            ()
        in
        (Connection.sock c).Api.scheduler <- sched;
        c
      in
      let shell = build ~links:(links clock ~seed paths) ~seed in
      Api.set_register (Connection.sock shell) 2 7;
      Api.set_packet_property (Connection.sock shell) ~prop:1 3;
      ignore (Connection.write shell size);
      ignore (Eventq.run ~until:cut clock);
      Connection.scrap shell ~release_pkt:(Packet.Pool.release packet_pool);
      Connection.recycle shell ~seed:(seed + 1);
      let fresh =
        build ~links:(links clock ~seed:(seed + 1) paths) ~seed:(seed + 1)
      in
      let compare_now what =
        match diff (connection_fields shell) (connection_fields fresh) with
        | Some d -> QCheck2.Test.fail_reportf "%s: %s" what d
        | None -> ()
      in
      compare_now "after recycle";
      if Rng.float shell.Connection.rng <> Rng.float fresh.Connection.rng then
        QCheck2.Test.fail_report "rng differs";
      if not (capacities_bounded shell) then
        QCheck2.Test.fail_report "retained capacity above the cap";
      (* both handshake; the old flow's copies, acks and handshakes still
         in flight drain meanwhile *)
      ignore (Eventq.run ~until:(Eventq.now clock +. 0.5) clock);
      compare_now "after the handshakes";
      true)

let recycle_suite =
  [
    ( "recycle",
      [
        QCheck_alcotest.to_alcotest recycle_equals_fresh;
        tc "the scheduler runs only for counted executions" (fun () ->
            let sched = load () in
            let fleet =
              Fleet.create ~seed:4
                ~scheduler:(sched, "interpreter")
                ~groups:2
                ~paths:(Mptcp_exp.Sweep.fleet_group_paths ~loss:0.01)
                ()
            in
            let sizes = Rng.stream ~seed:4 (-1_000_001) in
            Mptcp_exp.Traffic.drive ~clock:(Fleet.clock fleet)
              ~rng:(Rng.stream ~seed:4 (-1_000_002))
              ~rate:(fun _ -> 300.0)
              ~until:1.0
              (fun () ->
                Fleet.arrive fleet
                  ~size:
                    (Mptcp_exp.Traffic.draw_size
                       Mptcp_exp.Traffic.default_pareto sizes));
            let calls = ref 0 in
            Scheduler.set_tracer (fun _ -> incr calls);
            Fun.protect ~finally:Scheduler.clear_tracer (fun () ->
                ignore (Fleet.run ~until:60.0 fleet));
            let tot = Fleet.totals fleet in
            Alcotest.(check bool) "slots were recycled" true
              (Fleet.arrivals fleet > Fleet.slot_count fleet);
            Alcotest.(check int) "fleet drained" 0 tot.Fleet.t_live;
            Alcotest.(check int) "engine calls = counted executions"
              tot.Fleet.t_executions !calls);
        tc "a retired flow's late ack and handshake leave the next flow alone"
          (fun () ->
            (* one group, near path 10 ms, far path 30 ms one way. Flow A
               (one segment) completes on the near path at ~31 ms; its
               ack is still in flight until ~41 ms and its far handshake
               completes at 60 ms. Flow B arrives at 35 ms in A's slot;
               B's own near handshake completes at 55 ms, its far one at
               95 ms. *)
            let fleet =
              Fleet.create ~seed:1 ~groups:1
                ~paths:(Mptcp_exp.Sweep.fleet_group_paths ~loss:0.0)
                ()
            in
            let clock = Fleet.clock fleet in
            let b = ref None in
            let at time f = Eventq.post clock ~at:time f in
            let far () =
              (List.nth (Option.get !b).Connection.paths 1).Path_manager.subflow
            in
            let checks = ref 0 in
            let check time f =
              at time (fun () ->
                  incr checks;
                  f ())
            in
            Fleet.arrive fleet ~size:1000;
            check 0.034 (fun () ->
                Alcotest.(check int) "A complete" 1 (Fleet.completed fleet);
                Alcotest.(check int) "A retired" 0 (Fleet.live fleet));
            at 0.035 (fun () ->
                Fleet.arrive fleet ~size:1_000_000;
                Fleet.iter_live fleet (fun c -> b := Some c));
            check 0.045 (fun () ->
                let c = Option.get !b in
                let m = c.Connection.meta in
                let near = (List.hd c.Connection.paths).Path_manager.subflow in
                Alcotest.(check int) "B shares A's slot" 1
                  (Fleet.slot_count fleet);
                Alcotest.(check int) "B's data not acked by A's ack" 0
                  m.Meta_socket.data_una;
                Alcotest.(check int) "B's queue intact" 691
                  (Pqueue.length (Meta_socket.env m).Env.q);
                Alcotest.(check int) "B's near subflow untouched" 0
                  near.Tcp_subflow.snd_una;
                Alcotest.(check bool) "B's near handshake still pending" false
                  near.Tcp_subflow.established);
            check 0.070 (fun () ->
                Alcotest.(check bool)
                  "B's far subflow not established by A's handshake" false
                  (far ()).Tcp_subflow.established;
                Alcotest.(check int) "far subflow has no RTT sample" 0
                  (far ()).Tcp_subflow.rtt_samples);
            check 0.096 (fun () ->
                Alcotest.(check bool) "B's own far handshake completed" true
                  (far ()).Tcp_subflow.established);
            ignore (Fleet.run ~until:60.0 fleet);
            Alcotest.(check int) "every check ran" 4 !checks;
            Alcotest.(check int) "both flows complete" 2 (Fleet.completed fleet);
            Alcotest.(check int) "everything delivered" 1_001_000
              (Fleet.totals fleet).Fleet.t_delivered_bytes);
        tc "an arrival into a warm slot allocates at most 300 words" (fun () ->
            let sched = load () in
            let fleet =
              Fleet.create ~seed:2
                ~scheduler:(sched, "threaded")
                ~groups:1
                ~paths:(Mptcp_exp.Sweep.fleet_group_paths ~loss:0.0)
                ()
            in
            let size = 20_000 in
            Fleet.arrive fleet ~size;
            ignore (Fleet.run fleet);
            Alcotest.(check int) "first flow retired" 1 (Fleet.completed fleet);
            let before = Gc.minor_words () in
            Fleet.arrive fleet ~size;
            let words = Gc.minor_words () -. before in
            Alcotest.(check int) "warm slot reused" 1 (Fleet.slot_count fleet);
            Alcotest.(check bool)
              (Fmt.str "warm arrival allocated %.0f words" words)
              true (words <= 300.0);
            ignore (Fleet.run fleet);
            Alcotest.(check int) "second flow complete" 2
              (Fleet.completed fleet));
      ] );
  ]
