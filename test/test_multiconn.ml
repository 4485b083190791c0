(** Multi-connection simulations: several meta sockets in one simulated
    network, competing over a shared bottleneck — the TCP-friendliness
    setting of §2.1 (RFC 6356) — and scheduler isolation between
    tenants. *)

open Mptcp_sim
open Progmp_runtime
open Helpers

(* A light random loss keeps the flows in loss-driven congestion
   avoidance (otherwise per-flow TSQ pacing reaches an equilibrium in
   which windows never probe the buffer and coupling has nothing to
   do). *)
let bottleneck_params =
  {
    Link.default_params with
    Link.bandwidth = 1_250_000.0;
    delay = 0.02;
    buffer_bytes = 128 * 1024;
    loss = 0.005;
  }

let spec name = Path_manager.symmetric ~name bottleneck_params

(* [spec name] over caller-owned links *)
let over name data ack =
  { (spec name) with Path_manager.links = Some (data, ack) }

(* One MPTCP connection with [n] subflows ALL through the shared
   bottleneck, competing with a single-path TCP connection. Returns
   (mptcp delivered, single-path delivered). *)
let compete ~cc ~n ~seconds =
  ignore (Schedulers.Specs.load_all ());
  let clock = Eventq.create () in
  let rng = Rng.create 5 in
  let bottleneck = Link.create ~params:bottleneck_params ~clock ~rng () in
  let ack () =
    Link.create
      ~params:{ bottleneck_params with Link.bandwidth = 1e9 }
      ~clock ~rng:(Rng.split rng) ()
  in
  let mptcp =
    Connection.create ~seed:1 ~cc ~clock
      ~paths:(List.init n (fun i -> over (Fmt.str "m%d" i) bottleneck (ack ())))
      ()
  in
  let single =
    Connection.create ~seed:2 ~cc:Congestion.Reno ~clock
      ~paths:[ over "tcp" bottleneck (ack ()) ]
      ()
  in
  (* saturating sources *)
  Apps.Workload.cbr mptcp ~start:0.2 ~stop:seconds ~interval:0.05
    ~rate:(fun _ -> 1_600_000.0);
  Apps.Workload.cbr single ~start:0.2 ~stop:seconds ~interval:0.05
    ~rate:(fun _ -> 1_600_000.0);
  ignore (Eventq.run ~until:seconds clock);
  (Connection.delivered_bytes mptcp, Connection.delivered_bytes single)

let suite =
  [
    ( "multi-connection",
      [
        tc "two connections share one clock and both complete" (fun () ->
            let clock = Eventq.create () in
            let mk seed =
              Connection.create ~clock ~seed
                ~paths:(Mptcp_exp.Scenarios.mininet_two_subflows ())
                ()
            in
            let a = mk 1 and b = mk 2 in
            Connection.write_at a ~time:0.1 200_000;
            Connection.write_at b ~time:0.1 200_000;
            ignore (Eventq.run ~until:60.0 clock);
            Alcotest.(check bool) "a complete" true
              (Meta_socket.all_delivered a.Connection.meta);
            Alcotest.(check bool) "b complete" true
              (Meta_socket.all_delivered b.Connection.meta));
        tc "shared bottleneck splits capacity" (fun () ->
            let m, s = compete ~cc:Congestion.Reno ~n:1 ~seconds:20.0 in
            let total = float_of_int (m + s) in
            (* two Reno flows over a lossy 1.25 MB/s bottleneck: most of
               the capacity is used and neither flow starves *)
            Alcotest.(check bool)
              (Fmt.str "total %.0f > 60%% of capacity" total)
              true
              (total > 0.6 *. 1_250_000.0 *. 19.8);
            let share = float_of_int m /. total in
            Alcotest.(check bool)
              (Fmt.str "fair-ish split (mptcp share %.2f)" share)
              true
              (share > 0.3 && share < 0.7));
        tc "lia is friendlier than uncoupled reno on a shared bottleneck"
          (fun () ->
            let m_lia, s_lia = compete ~cc:Congestion.Lia ~n:2 ~seconds:30.0 in
            let m_reno, s_reno =
              compete ~cc:Congestion.Reno ~n:2 ~seconds:30.0
            in
            let share m s = float_of_int m /. float_of_int (m + s) in
            let lia = share m_lia s_lia and reno = share m_reno s_reno in
            (* 2 uncoupled subflows vs 1 TCP tends towards 2/3; LIA caps
               the aggregate aggressiveness *)
            Alcotest.(check bool)
              (Fmt.str "lia share %.2f < reno share %.2f" lia reno)
              true (lia < reno));
        tc "a connection over shared links takes every create option"
          (fun () ->
            (* the shared-link constructor once lacked ~ordering *)
            let clock = Eventq.create () in
            let rng = Rng.create 3 in
            let link params =
              Link.create ~params ~clock ~rng:(Rng.split rng) ()
            in
            let conn =
              Connection.create ~clock ~seed:1 ~ordering:Meta_socket.Unordered
                ~paths:
                  [
                    over "a" (link bottleneck_params)
                      (link { bottleneck_params with Link.loss = 0.0 });
                  ]
                ()
            in
            Alcotest.(check bool) "unordered" true
              (conn.Connection.meta.Meta_socket.ordering
             = Meta_socket.Unordered);
            Connection.write_at conn ~time:0.1 100_000;
            ignore (Eventq.run ~until:30.0 clock);
            Alcotest.(check int) "all delivered" 100_000
              (Connection.delivered_bytes conn));
        tc "paths over another clock's links are rejected" (fun () ->
            let other = Eventq.create () in
            let link () =
              Link.create ~params:bottleneck_params ~clock:other
                ~rng:(Rng.create 1) ()
            in
            match
              Connection.create ~seed:1
                ~paths:[ over "a" (link ()) (link ()) ]
                ()
            with
            | _ -> Alcotest.fail "a path on a foreign clock was accepted"
            | exception Invalid_argument _ -> ());
        tc "tenants get isolated schedulers and registers" (fun () ->
            ignore (Schedulers.Specs.load_all ());
            let clock = Eventq.create () in
            let a =
              Connection.create ~clock ~seed:1
                ~paths:(Mptcp_exp.Scenarios.wifi_lte ())
                ()
            in
            let b =
              Connection.create ~clock ~seed:2
                ~paths:(Mptcp_exp.Scenarios.wifi_lte ())
                ()
            in
            Api.set_scheduler (Connection.sock a) "tap";
            Api.set_scheduler (Connection.sock b) "round_robin";
            Api.set_register (Connection.sock a) 0 4_000_000;
            Alcotest.(check string) "a" "tap" (Api.scheduler_name (Connection.sock a));
            Alcotest.(check string) "b" "round_robin"
              (Api.scheduler_name (Connection.sock b));
            Alcotest.(check int) "b register untouched" 0
              (Api.get_register (Connection.sock b) 0);
            Connection.write_at a ~time:0.1 100_000;
            Connection.write_at b ~time:0.1 100_000;
            ignore (Eventq.run ~until:60.0 clock);
            Alcotest.(check bool) "a complete" true
              (Meta_socket.all_delivered a.Connection.meta);
            Alcotest.(check bool) "b complete" true
              (Meta_socket.all_delivered b.Connection.meta));
      ] );
  ]

(* ---------- fleet hosting ---------- *)

let jain rates =
  let n = float_of_int (List.length rates) in
  let s = List.fold_left ( +. ) 0.0 rates in
  let s2 = List.fold_left (fun a x -> a +. (x *. x)) 0.0 rates in
  if s2 = 0.0 then 1.0 else s *. s /. (n *. s2)

let fleet_suite =
  [
    ( "fleet",
      [
        tc "open-loop flows complete, recycle slots and respect capacity"
          (fun () ->
            let fleet =
              Fleet.create ~seed:11
                ~paths:[ Path_manager.symmetric ~name:"bn" bottleneck_params ]
                ()
            in
            let rates = ref [] in
            Fleet.set_on_retire fleet (fun ~fct ~size ~delivered ->
                Alcotest.(check int) "whole flow delivered" size delivered;
                if fct > 0.0 then
                  rates := (float_of_int size /. fct) :: !rates);
            let wave = 8 and size = 100_000 in
            for _ = 1 to wave do
              Fleet.arrive fleet ~size
            done;
            ignore (Fleet.run ~until:150.0 fleet);
            Alcotest.(check int) "first wave complete" wave
              (Fleet.completed fleet);
            let first_wave_rates = !rates in
            (* second wave reuses the retired slots *)
            for _ = 1 to wave do
              Fleet.arrive fleet ~size
            done;
            ignore (Fleet.run ~until:300.0 fleet);
            Alcotest.(check int) "all complete" (2 * wave)
              (Fleet.completed fleet);
            Alcotest.(check int) "none live" 0 (Fleet.live fleet);
            Alcotest.(check int) "slots recycled, not grown" wave
              (Fleet.slot_count fleet);
            let tot = Fleet.totals fleet in
            Alcotest.(check int) "delivered everything"
              (2 * wave * size) tot.Fleet.t_delivered_bytes;
            (* aggregate goodput over the busy period can't exceed the
               shared bottleneck's capacity *)
            let makespan =
              List.fold_left
                (fun acc r -> Float.max acc (float_of_int size /. r))
                0.0 first_wave_rates
            in
            let goodput = float_of_int (wave * size) /. makespan in
            Alcotest.(check bool)
              (Fmt.str "aggregate goodput %.0f B/s <= capacity" goodput)
              true
              (goodput <= 1.05 *. bottleneck_params.Link.bandwidth);
            (* simultaneous equal flows should share the bottleneck
               roughly fairly *)
            let j = jain first_wave_rates in
            Alcotest.(check bool)
              (Fmt.str "jain index %.2f > 0.5" j)
              true (j > 0.5));
        tc "1k stream seeds are distinct and streams look independent"
          (fun () ->
            let n = 1000 in
            let seeds = List.init n (fun i -> Rng.stream_seed ~seed:7 i) in
            Alcotest.(check int) "distinct" n
              (List.length (List.sort_uniq compare seeds));
            List.iter
              (fun s ->
                if s < 0 then Alcotest.failf "negative stream seed %d" s)
              seeds;
            (* first draws of 1k derived streams: mean near 1/2 and no
               serial correlation between adjacent streams *)
            let draws =
              Array.init n (fun i -> Rng.float (Rng.stream ~seed:7 i))
            in
            let mean = Array.fold_left ( +. ) 0.0 draws /. float_of_int n in
            Alcotest.(check bool)
              (Fmt.str "mean %.3f near 0.5" mean)
              true
              (mean > 0.45 && mean < 0.55);
            let num = ref 0.0 and den = ref 0.0 in
            for i = 0 to n - 1 do
              let x = draws.(i) -. mean in
              den := !den +. (x *. x);
              if i < n - 1 then
                num := !num +. (x *. (draws.(i + 1) -. mean))
            done;
            let corr = !num /. !den in
            Alcotest.(check bool)
              (Fmt.str "serial correlation %.3f small" corr)
              true
              (Float.abs corr < 0.1));
      ] );
  ]

(* "Beyond MPTCP" (§6): the unordered delivery discipline. *)
let unordered_suite =
  [
    ( "unordered-delivery",
      [
        tc "unordered delivers everything exactly once" (fun () ->
            let paths =
              Mptcp_exp.Scenarios.mininet_two_subflows ~rtt_ratio:4.0 ~loss:0.05 ()
            in
            let conn =
              Connection.create ~seed:3 ~ordering:Meta_socket.Unordered ~paths ()
            in
            Connection.write_at conn ~time:0.1 300_000;
            Connection.run ~until:120.0 conn;
            let meta = conn.Connection.meta in
            Alcotest.(check bool) "all delivered" true (Meta_socket.all_delivered meta);
            Alcotest.(check int) "exactly once" meta.Meta_socket.next_seq
              meta.Meta_socket.delivered_segments;
            Alcotest.(check int) "delivered bytes" 300_000
              (Connection.delivered_bytes conn));
        tc "unordered delivery can be out of data order" (fun () ->
            let paths =
              Mptcp_exp.Scenarios.mininet_two_subflows ~rtt_ratio:6.0 ~loss:0.05 ()
            in
            let conn =
              Connection.create ~seed:3 ~ordering:Meta_socket.Unordered ~paths ()
            in
            let order = ref [] in
            conn.Connection.meta.Meta_socket.on_deliver <-
              (fun ~seq ~size:_ ~time:_ -> order := seq :: !order);
            Connection.write_at conn ~time:0.1 300_000;
            Connection.run ~until:120.0 conn;
            let got = List.rev !order in
            Alcotest.(check bool) "some reordering observed" true
              (got <> List.sort compare got));
        tc "unordered is never later than ordered per segment" (fun () ->
            let run ordering =
              let paths =
                Mptcp_exp.Scenarios.mininet_two_subflows ~rtt_ratio:4.0 ~loss:0.05 ()
              in
              let conn = Connection.create ~seed:9 ~ordering ~paths () in
              Connection.write_at conn ~time:0.1 200_000;
              Connection.run ~until:120.0 conn;
              conn.Connection.meta
            in
            let u = run Meta_socket.Unordered in
            let o = run Meta_socket.Ordered in
            for seq = 0 to u.Meta_socket.next_seq - 1 do
              match
                ( Meta_socket.delivery_time_of u seq,
                  Meta_socket.delivery_time_of o seq )
              with
              | Some tu, Some to_ ->
                  Alcotest.(check bool)
                    (Fmt.str "seq %d: %.4f <= %.4f" seq tu to_)
                    true
                    (tu <= to_ +. 1e-9)
              | _ -> Alcotest.failf "segment %d missing" seq
            done);
        tc "unordered keeps the receive window open" (fun () ->
            let paths =
              Mptcp_exp.Scenarios.mininet_two_subflows ~rtt_ratio:6.0 ~loss:0.05 ()
            in
            let conn =
              Connection.create ~seed:3 ~ordering:Meta_socket.Unordered ~paths ()
            in
            Connection.write_at conn ~time:0.1 300_000;
            Connection.run ~until:120.0 conn;
            Alcotest.(check int) "no ooo bytes buffered" 0
              conn.Connection.meta.Meta_socket.rcv_ooo_bytes);
      ] );
  ]

(* ---------- coupled-CC lifecycle regressions ---------- *)

(* A two-subflow LIA connection for closure-capture audits: both
   subflows share one bottleneck so the coupled aggregate is
   observable through the increase the closure grants. *)
let lia_pair () =
  let clock = Eventq.create () in
  let rng = Rng.create 9 in
  let bottleneck = Link.create ~params:bottleneck_params ~clock ~rng () in
  let ack () =
    Link.create
      ~params:{ bottleneck_params with Link.bandwidth = 1e9 }
      ~clock ~rng:(Rng.split rng) ()
  in
  let conn =
    Connection.create ~seed:4 ~cc:Congestion.Lia ~clock
      ~paths:[ over "a" bottleneck (ack ()); over "b" bottleneck (ack ()) ]
      ()
  in
  ignore (Eventq.run ~until:1.0 clock);
  (clock, conn)

(* Force congestion avoidance and measure what one ack's worth of
   increase does to [s]'s window under the installed policy. *)
let increase_under sbf =
  sbf.Tcp_subflow.f.ssthresh <- 1.0;
  let before = sbf.Tcp_subflow.f.cwnd in
  sbf.Tcp_subflow.cc_on_ack sbf 1;
  let inc = sbf.Tcp_subflow.f.cwnd -. before in
  sbf.Tcp_subflow.f.cwnd <- before;
  inc

let cc_suite =
  [
    ( "coupled-cc lifecycle",
      [
        tc "reestablish keeps the coupled cc_on_ack" (fun () ->
            let clock, conn = lia_pair () in
            let a = Connection.subflow conn 0 in
            Alcotest.(check bool) "established" true a.Tcp_subflow.established;
            let coupled = a.Tcp_subflow.cc_on_ack in
            Alcotest.(check bool) "lia closure installed" true
              (coupled != Tcp_subflow.reno_on_ack);
            Tcp_subflow.fail a;
            Tcp_subflow.reestablish ~at:(Eventq.now clock) a;
            ignore (Eventq.run ~until:(Eventq.now clock +. 2.0) clock);
            Alcotest.(check bool) "re-established" true
              a.Tcp_subflow.established;
            Alcotest.(check bool) "same closure survives" true
              (a.Tcp_subflow.cc_on_ack == coupled));
        tc "a failed subflow leaves the LIA aggregate" (fun () ->
            let _clock, conn = lia_pair () in
            let a = Connection.subflow conn 0
            and b = Connection.subflow conn 1 in
            a.Tcp_subflow.f.cwnd <- 10.0;
            b.Tcp_subflow.f.cwnd <- 1000.0;
            b.Tcp_subflow.f.ssthresh <- 1.0;
            let with_b = increase_under a in
            Tcp_subflow.fail b;
            let without_b = increase_under a in
            (* a 1000-segment sibling drags alpha/total down; once the
               sibling is down it must stop suppressing a's growth *)
            Alcotest.(check bool)
              (Fmt.str "increase %.5f (down sibling) > %.5f (up sibling)"
                 without_b with_b)
              true
              (without_b > with_b *. 2.0));
        tc "add_path pulls the newcomer into the coupled aggregate"
          (fun () ->
            let clock, conn = lia_pair () in
            let a = Connection.subflow conn 0 in
            let before_add = a.Tcp_subflow.cc_on_ack in
            let managed =
              Connection.add_path conn ~at:(Eventq.now clock) (spec "late")
            in
            ignore (Eventq.run ~until:(Eventq.now clock +. 2.0) clock);
            let c = managed.Path_manager.subflow in
            Alcotest.(check bool) "late subflow established" true
              c.Tcp_subflow.established;
            (* install runs again over the grown list: every member gets
               a closure over all three subflows *)
            Alcotest.(check bool) "existing subflow reinstalled" true
              (a.Tcp_subflow.cc_on_ack != before_add);
            Alcotest.(check bool) "newcomer coupled, not reno" true
              (c.Tcp_subflow.cc_on_ack != Tcp_subflow.reno_on_ack);
            a.Tcp_subflow.f.cwnd <- 10.0;
            c.Tcp_subflow.f.cwnd <- 1000.0;
            c.Tcp_subflow.f.ssthresh <- 1.0;
            let with_c = increase_under a in
            Tcp_subflow.fail c;
            let without_c = increase_under a in
            Alcotest.(check bool)
              (Fmt.str "newcomer weighs on the aggregate (%.5f < %.5f)"
                 with_c without_c)
              true
              (with_c < without_c));
        tc "add_path builds with the connection's subflow options" (fun () ->
            let pool = Tcp_subflow.entry_pool () in
            let conn =
              Connection.create ~seed:4 ~min_rto:1.0
                ~delivery_mode:Tcp_subflow.Two_layer ~entry_pool:pool
                ~paths:[ spec "a" ] ()
            in
            let added =
              (Connection.add_path conn ~at:0.0 (spec "b")).Path_manager.subflow
            in
            Alcotest.(check (float 0.0)) "min_rto" 1.0 added.Tcp_subflow.min_rto;
            Alcotest.(check bool) "delivery mode" true
              (added.Tcp_subflow.delivery_mode = Tcp_subflow.Two_layer);
            Alcotest.(check bool) "entry pool" true
              (added.Tcp_subflow.pool == pool));
      ] );
  ]
