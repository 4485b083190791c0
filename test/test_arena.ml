(** Fleet arena properties: the pooled packet/entry lifecycle (recycled
    slots carry no prior-generation references) and shard invariance
    (the sharded fleet reproduces the unsharded run's aggregate totals
    exactly). *)

open Mptcp_sim
open Progmp_runtime
open Helpers

let load () =
  Progmp_compiler.Compile.register_engines ();
  ignore (Schedulers.Specs.load_all ());
  match Scheduler.find "default" with Some s -> s | None -> assert false

(* ---------- arena recycling ---------- *)

(* A small overloaded fleet churned through several waves: every packet
   a live connection can still reach must be an allocated (non-pooled)
   incarnation, and once the fleet drains, both arenas must be clean —
   freelist entries hold only dummies, with generation stamps proving
   slots really were recycled across flows rather than freshly
   allocated per arrival. *)
let arena_suite =
  [
    ( "arena",
      [
        tc "recycled slots hold no prior-generation references" (fun () ->
            let sched = load () in
            let fleet =
              Fleet.create ~seed:3
                ~scheduler:(sched, "interpreter")
                ~groups:2
                ~paths:(Mptcp_exp.Sweep.fleet_group_paths ~loss:0.0)
                ()
            in
            let size_rng = Rng.stream ~seed:3 (-1_000_001) in
            let arrival_rng = Rng.stream ~seed:3 (-1_000_002) in
            Mptcp_exp.Traffic.drive ~clock:(Fleet.clock fleet)
              ~rng:arrival_rng
              ~rate:(fun _ -> 500.0)
              ~until:4.0
              (fun () ->
                Fleet.arrive fleet
                  ~size:
                    (Mptcp_exp.Traffic.draw_size
                       Mptcp_exp.Traffic.default_pareto size_rng));
            (* sample the reachability invariant mid-flight, while slots
               are recycling under load *)
            let checks = ref 0 in
            let rec probe t =
              if t < 4.0 then
                Eventq.post (Fleet.clock fleet) ~at:t (fun () ->
                    Fleet.iter_live_packets fleet (fun p ->
                        incr checks;
                        if p.Packet.pooled then
                          Alcotest.failf
                            "live connection references pooled packet %d"
                            p.Packet.id;
                        if p == Packet.dummy then
                          Alcotest.fail "live connection references dummy");
                    probe (t +. 0.5))
            in
            probe 0.75;
            ignore (Fleet.run fleet);
            Alcotest.(check bool) "probed live packets" true (!checks > 0);
            Alcotest.(check int) "fleet drained" 0 (Fleet.live fleet);
            let ppool = Fleet.packet_pool fleet in
            Alcotest.(check bool) "arrivals outnumber slots" true
              (Fleet.arrivals fleet > Fleet.slot_count fleet);
            Alcotest.(check bool) "packets were recycled" true
              (Packet.Pool.releases ppool > 0);
            Alcotest.(check int) "no packet leaked" 0
              (Packet.Pool.outstanding ppool);
            Alcotest.(check int) "freelist holds every record"
              (Packet.Pool.created ppool)
              (Packet.Pool.free_count ppool);
            (* packet records were reused across incarnations: with far
               more arrivals than slots, some generation stamp must
               exceed any plausible first-life count *)
            let epool = Fleet.entry_pool fleet in
            Alcotest.(check bool) "entries were recycled" true
              (Tcp_subflow.entry_pool_releases epool > 0);
            Alcotest.(check int) "no entry leaked" 0
              (Tcp_subflow.entry_pool_outstanding epool);
            Alcotest.(check bool) "entry freelist clean" true
              (Tcp_subflow.entry_pool_clean epool);
            let max_gen =
              List.fold_left
                (fun m e -> max m e.Tcp_subflow.e_gen)
                0
                (Tcp_subflow.entry_pool_free epool)
            in
            Alcotest.(check bool)
              (Fmt.str "some entry recycled repeatedly (max gen %d)" max_gen)
              true (max_gen >= 2);
            List.iter
              (fun e ->
                let open Tcp_subflow in
                if e.e_sbf <> None then Alcotest.fail "free entry has owner";
                if e.e_pending <> 0 then
                  Alcotest.fail "free entry has pending arrivals";
                if e.e_pkt != Packet.dummy then
                  Alcotest.fail "free entry references a packet")
              (Tcp_subflow.entry_pool_free epool))
      ] );
  ]

(* ---------- shard invariance ---------- *)

let shard_suite =
  [
    ( "fleet sharding",
      [
        tc "1-shard and 4-shard fleets agree on aggregate totals" (fun () ->
            let sched = load () in
            let run shards =
              Mptcp_exp.Fleet_run.run ~interval:5.0
                ~scheduler:(sched, "interpreter")
                ~cc:Congestion.Lia ~seed:9 ~loss:0.0 ~duration:12.0 ~groups:8
                ~shards
                ~rate:(fun _ -> 850.0)
                ~dist:Mptcp_exp.Traffic.default_pareto ()
            in
            let one = run 1 and four = run 4 in
            Alcotest.(check int) "four shards spawned" 4 (Array.length four);
            let t1 = Mptcp_exp.Fleet_run.merged_totals one in
            let t4 = Mptcp_exp.Fleet_run.merged_totals four in
            (* enough churn for the property to bite: ~10k connections *)
            Alcotest.(check bool)
              (Fmt.str "workload hosts >= 10000 connections (%d)"
                 t1.Fleet.t_arrivals)
              true
              (t1.Fleet.t_arrivals >= 10_000);
            Alcotest.(check int) "arrivals" t1.Fleet.t_arrivals
              t4.Fleet.t_arrivals;
            Alcotest.(check int) "completed" t1.Fleet.t_completed
              t4.Fleet.t_completed;
            Alcotest.(check int) "live" t1.Fleet.t_live t4.Fleet.t_live;
            Alcotest.(check int) "delivered bytes" t1.Fleet.t_delivered_bytes
              t4.Fleet.t_delivered_bytes;
            Alcotest.(check int) "wire bytes" t1.Fleet.t_wire_bytes
              t4.Fleet.t_wire_bytes;
            Alcotest.(check int) "executions" t1.Fleet.t_executions
              t4.Fleet.t_executions;
            Alcotest.(check int) "pushes" t1.Fleet.t_pushes t4.Fleet.t_pushes;
            Alcotest.(check int) "slots"
              (Mptcp_exp.Fleet_run.slot_count one)
              (Mptcp_exp.Fleet_run.slot_count four);
            (* per-shard peaks sum to an upper bound on the true peak *)
            Alcotest.(check bool)
              (Fmt.str "peak bound: %d <= %d" t1.Fleet.t_peak_live
                 t4.Fleet.t_peak_live)
              true
              (t1.Fleet.t_peak_live <= t4.Fleet.t_peak_live);
            (* identical FCT multiset, summed in a different order *)
            let rel =
              Float.abs (t1.Fleet.t_fct_sum -. t4.Fleet.t_fct_sum)
              /. Float.max 1.0 t1.Fleet.t_fct_sum
            in
            Alcotest.(check bool)
              (Fmt.str "fct sum within float tolerance (rel %.2e)" rel)
              true (rel < 1e-9))
      ] );
  ]
