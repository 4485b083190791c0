(* Multi-tenancy: isolated application-defined schedulers (paper
   abstract and §6, "Target Developer").

   Two tenants share one process and one simulated network epoch:

   - tenant A runs an interactive assistant (thin request/response
     traffic) and installs the latency- and preference-aware scheduler
     with a 30 ms tolerable-RTT intent;
   - tenant B bulk-uploads with the plain default scheduler.

   Each connection has its own register file and scheduler choice —
   loading or configuring one tenant's scheduler never perturbs the
   other, which is the isolation property the in-kernel runtime provides
   to containers.

   Run with: dune exec examples/multi_tenant.exe *)

open Mptcp_sim
open Progmp_runtime

let () =
  ignore (Schedulers.Specs.load_all ());
  let clock = Eventq.create () in

  (* tenant A: assistant over WiFi+LTE; WiFi degrades mid-run *)
  let assistant =
    Connection.create ~clock ~seed:1 ~paths:(Mptcp_exp.Scenarios.wifi_lte ()) ()
  in
  Api.set_scheduler (Connection.sock assistant) "target_rtt";
  Api.set_register (Connection.sock assistant) 0 30_000 (* 30 ms target *);
  Connection.at assistant ~time:3.0 (fun () ->
      Link.set_delay (Connection.data_link assistant 0) 0.080);
  Connection.at assistant ~time:6.0 (fun () ->
      Link.set_delay (Connection.data_link assistant 0) 0.005);

  (* tenant B: bulk upload over the same kind of paths, default policy *)
  let uploader =
    Connection.create ~clock ~seed:2
      ~paths:(Mptcp_exp.Scenarios.wifi_lte ~lte_backup:false ())
      ()
  in
  ignore (Api.scheduler_name (Connection.sock uploader)) (* default *);

  (* traffic *)
  let latencies = ref [] in
  let pending = Hashtbl.create 64 in
  assistant.Connection.meta.Meta_socket.on_deliver <-
    (fun ~seq ~size:_ ~time ->
      match Hashtbl.find_opt pending seq with
      | Some t0 -> latencies := (time -. t0) :: !latencies
      | None -> ());
  let rec ask t =
    if t < 9.0 then
      Connection.at assistant ~time:t (fun () ->
          let seqs = Connection.write assistant 1448 in
          List.iter
            (fun s -> Hashtbl.replace pending s (Connection.now assistant))
            seqs;
          ask (t +. 0.1))
  in
  ask 0.3;
  Apps.Workload.bulk uploader ~at:0.3 ~bytes:20_000_000;

  ignore (Eventq.run ~until:60.0 clock);

  Fmt.pr "tenant A (assistant, target_rtt):@.";
  Fmt.pr "  requests        : %d@." (List.length !latencies);
  Fmt.pr "  median latency  : %.1f ms@."
    (Stats.median !latencies *. 1e3);
  Fmt.pr "  p95 latency     : %.1f ms (WiFi spiked to 160 ms RTT for 3 s)@."
    (Stats.percentile 0.95 !latencies *. 1e3);
  Fmt.pr "tenant B (uploader, default):@.";
  Fmt.pr "  uploaded        : %.1f MB in %.2f s@."
    (float_of_int (Connection.delivered_bytes uploader) /. 1e6)
    (Connection.now uploader);
  Fmt.pr "@.isolation: scheduler choices %S vs %S, tenant A's R1=%d while \
          tenant B's R1=%d@."
    (Api.scheduler_name (Connection.sock assistant))
    (Api.scheduler_name (Connection.sock uploader))
    (Api.get_register (Connection.sock assistant) 0)
    (Api.get_register (Connection.sock uploader) 0)
