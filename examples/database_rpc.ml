(* The paper's §3.2 motivating example: a database connection where
   "small requests, which usually consist of a few packets, may
   significantly benefit from redundancy while introducing a limited
   overhead. In contrast, heavy database responses can be transmitted
   throughput-optimized on the same connection."

   The client marks its small RPCs with PROP2 = 1 (the per-packet
   scheduling intent of the extended API); the priority_redundant
   scheduler copies them onto every subflow with room — the first copy
   to arrive wins — while bulk result sets ride plain min-RTT.

   Run with: dune exec examples/database_rpc.exe *)

open Mptcp_sim

let run label ~scheduler ~mark_requests =
  ignore (Schedulers.Specs.load_all ());
  let paths =
    Mptcp_exp.Scenarios.mininet_two_subflows ~rtt_ratio:2.0 ~loss:0.02 ()
  in
  let conn = Connection.create ~seed:23 ~paths () in
  Progmp_runtime.Api.set_scheduler (Connection.sock conn) scheduler;
  let latencies = ref [] in
  let pending = Hashtbl.create 64 in
  conn.Connection.meta.Meta_socket.on_deliver <- (fun ~seq ~size:_ ~time ->
      match Hashtbl.find_opt pending seq with
      | Some t0 -> latencies := (time -. t0) :: !latencies
      | None -> ());
  (* every 250 ms: a 1-packet RPC followed by a 100 kB result set
     (~400 kB/s offered against ~1 MB/s loss-limited capacity) *)
  let rec tick t =
    if t < 8.0 then
      Connection.at conn ~time:t (fun () ->
          let props = if mark_requests then [| 0; 1; 0; 0 |] else [| 0 |] in
          List.iter
            (fun s -> Hashtbl.replace pending s (Connection.now conn))
            (Connection.write ~props conn 400);
          ignore (Connection.write conn 100_000);
          tick (t +. 0.25))
  in
  tick 0.2;
  Connection.run ~until:120.0 conn;
  let wire =
    List.fold_left
      (fun a m -> a + m.Path_manager.subflow.Tcp_subflow.bytes_sent)
      0 conn.Connection.paths
  in
  Fmt.pr "%-34s rpc p95 %6.1f ms   max %6.1f ms   wire overhead %.3fx@."
    label
    (Stats.percentile 0.95 !latencies *. 1e3)
    (Stats.percentile 1.0 !latencies *. 1e3)
    (float_of_int wire /. float_of_int (Connection.delivered_bytes conn))

let () =
  Fmt.pr
    "database traffic: tiny RPCs interleaved with 100 kB result sets,@.2 \
     subflows, 2%% loss@.@.";
  run "default (no intents)" ~scheduler:"default" ~mark_requests:false;
  run "priority_redundant (PROP2 = 1)" ~scheduler:"priority_redundant"
    ~mark_requests:true;
  Fmt.pr
    "@.Marking only the requests buys them loss-proof redundant delivery \
     at a negligible overall overhead: the heavy responses still use the \
     aggregated bandwidth (the paper's §3.2 example).@."
