(** [simulate] — run an MPTCP simulation scenario with a chosen scheduler
    and print a measurement summary. Scenarios correspond to the
    evaluation setups of the paper (bulk, streaming, short flows, web
    pages, DASH) and are defined in {!Mptcp_exp.Scenarios}; this binary
    only supplies the scheduler and observer hooks, and the printers. *)

open Cmdliner
open Mptcp_sim
module Fleet_cli = Mptcp_exp.Fleet_cli
module Scenarios = Mptcp_exp.Scenarios

let duration_arg =
  Arg.(value & opt float 30.0 & info [ "duration" ] ~doc:"Simulated seconds.")

let verbose_arg =
  Arg.(
    value & flag
    & info [ "verbose"; "v" ]
        ~doc:"Print simulator debug events (loss, recovery, reinjection).")

let setup_logging verbose =
  if verbose then begin
    Logs.set_reporter (Logs_fmt.reporter ());
    Logs.Src.set_level Sim_log.src (Some Logs.Debug)
  end

let topology_arg =
  Arg.(
    value
    & opt string "dumbbell"
    & info [ "topology" ] ~docv:"TOPO"
        ~doc:
          "Shared-link topology for the $(b,fairness) scenario: a builtin \
           name (dumbbell, dumbbell-red, two-bottlenecks) or a topology \
           file.")

let faults_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"FILE"
        ~doc:
          "Fault script applied to the connection(s): one TIME PATH ACTION \
           step per line (see docs/FAULTS.md).")

let invariants_arg =
  Arg.(
    value & flag
    & info [ "check-invariants" ]
        ~doc:
          "Attach the cross-layer invariant checker to every connection and \
           fail (exit 3) on any violation.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a structured event trace (packet lifecycle, estimator \
           updates, scheduler decisions, faults) as JSON Lines to $(docv) \
           ('-' for stdout); a .csv suffix selects the CSV encoding.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Sample per-subflow time-series metrics (cwnd, srtt, in-flight, \
           queue depths, goodput) and write them as CSV to $(docv) ('-' for \
           stdout).")

let metrics_interval_arg =
  Arg.(
    value
    & opt float 0.1
    & info [ "metrics-interval" ] ~docv:"SECONDS"
        ~doc:"Sampling interval for $(b,--metrics).")

let load_faults = function
  | None -> []
  | Some file -> (
      match Faults.load file with
      | Ok script -> script
      | Error msg ->
          Fmt.epr "simulate: %s@." msg;
          exit 2)

let setup_scheduler name engine =
  ignore (Schedulers.Specs.load_all ());
  match Progmp_runtime.Scheduler.find name with
  | None ->
      Fmt.epr "unknown scheduler %s@." name;
      exit 2
  | Some sched -> (
      match Progmp_runtime.Scheduler.set_engine sched engine with
      | () -> sched
      | exception Progmp_runtime.Engine.Unknown msg ->
          Fmt.epr "simulate: %s@." msg;
          exit 2)

let summary conn =
  let meta = conn.Connection.meta in
  Fmt.pr "simulated time     : %.3f s@." (Connection.now conn);
  Fmt.pr "delivered          : %d bytes (%d segments, complete: %b)@."
    (Connection.delivered_bytes conn)
    meta.Meta_socket.delivered_segments
    (Meta_socket.all_delivered meta);
  List.iter
    (fun m ->
      let s = m.Path_manager.subflow in
      Fmt.pr
        "subflow %-6s     : sent %8d B (%d segs, %d retx), srtt %.1f ms, \
         cwnd %.1f@."
        m.Path_manager.spec.Path_manager.path_name s.Tcp_subflow.bytes_sent
        s.Tcp_subflow.segs_sent s.Tcp_subflow.segs_retx
        (s.Tcp_subflow.f.srtt *. 1e3) s.Tcp_subflow.f.cwnd)
    conn.Connection.paths;
  Fmt.pr "scheduler events   : %d executions, %d pushes, %d drops@."
    meta.Meta_socket.sched_executions meta.Meta_socket.pushes
    meta.Meta_socket.drops;
  match Meta_socket.fct meta ~first:0 ~last:(meta.Meta_socket.next_seq - 1) with
  | Some t -> Fmt.pr "flow completion    : %.3f s@." t
  | None -> Fmt.pr "flow completion    : (incomplete)@."

let print_result scenario ~topo ~cc (o : Scenarios.outcome) =
  let extra k = List.assoc k o.result.Scenarios.r_extra in
  let count k = int_of_float (extra k) in
  match scenario with
  | "short-flows" ->
      Fmt.pr "short flows        : %d/10 completed, mean FCT %.1f ms, mean \
              wire %.0f B@."
        (count "completed") (extra "mean_fct_ms") (extra "mean_wire_bytes")
  | "http2" when List.mem_assoc "incomplete" o.result.r_extra ->
      Fmt.pr "page load incomplete@."
  | "http2" ->
      Fmt.pr "dependency info    : %.1f ms@." (extra "dependency_ms");
      Fmt.pr "initial view       : %.1f ms@." (extra "initial_view_ms");
      Fmt.pr "full load          : %.1f ms@." (extra "full_load_ms");
      Fmt.pr "wifi / lte bytes   : %d / %d@." (count "wifi_bytes")
        (count "lte_bytes")
  | "dash" ->
      Fmt.pr "deadline misses    : %d (worst lateness %.1f ms)@."
        (count "deadline_misses") (extra "worst_lateness_ms");
      Fmt.pr "backup bytes       : %d@." (count "backup_bytes")
  | "fairness" ->
      Fmt.pr "topology           : %s, cc %s@."
        (Topology.name (Option.get topo))
        (Congestion.to_string cc);
      Fmt.pr "mptcp goodput      : %.0f bps@." (extra "mptcp_goodput_bps");
      Fmt.pr "single-path goodput: %.0f bps@." (extra "single_goodput_bps");
      Fmt.pr "mptcp/single ratio : %.2f@." (extra "mptcp_share");
      Fmt.pr "jain index         : %.3f@." (extra "jain");
      Fmt.pr "%a" Topology.pp_stats o.links
  | _ -> summary (List.hd o.conns)

let run_scenario scenario scheduler seed loss duration engine faults_file
    check_inv trace_file metrics_file metrics_interval verbose cc topology =
  setup_logging verbose;
  let sched = setup_scheduler scheduler engine in
  let cc_policy =
    match Congestion.of_string cc with
    | Ok c -> c
    | Error msg ->
        Fmt.epr "simulate: --cc: %s@." msg;
        exit 2
  in
  let topo =
    if scenario <> "fairness" then None
    else
      match Topology.resolve topology with
      | Ok t -> Some t
      | Error msg ->
          Fmt.epr "simulate: --topology: %s@." msg;
          exit 2
  in
  let faults = load_faults faults_file in
  let trace = Option.map Mptcp_obs.Trace.to_file trace_file in
  (* '-' writes to stdout, flushed instead of closed *)
  let metrics =
    Option.map
      (fun f -> if f = "-" then (stdout, flush) else (open_out f, close_out))
      metrics_file
  in
  let checkers = ref [] and recorders = ref [] and collectors = ref [] in
  let instrument conn =
    Faults.apply conn faults;
    if check_inv then checkers := Invariants.attach conn :: !checkers;
    Option.iter
      (fun (sink, _) ->
        recorders := Mptcp_obs.Recorder.attach sink conn :: !recorders)
      trace;
    if Option.is_some metrics then
      collectors :=
        Mptcp_obs.Metrics.attach ~interval:metrics_interval ~until:duration conn
        :: !collectors
  in
  let finish_observability () =
    Option.iter
      (fun (_, finish) ->
        List.iter Mptcp_obs.Recorder.detach !recorders;
        finish ())
      trace;
    Option.iter
      (fun (oc, close) ->
        output_string oc (Mptcp_obs.Metrics.csv_header ^ "\n");
        List.iter
          (fun c -> Mptcp_obs.Metrics.iter c (Mptcp_obs.Metrics.write_row oc))
          (List.rev !collectors);
        close oc)
      metrics
  in
  let fault_label = Option.value faults_file ~default:"none" in
  let params =
    {
      Mptcp_exp.Spec.run_id = 0;
      scenario;
      scheduler;
      engine;
      cc;
      topology;
      loss;
      fleet = 1;
      rate = 0.0;
      size = "default";
      fault = { fault_label; fault_file = faults_file };
      seed;
    }
  in
  let outcome =
    Scenarios.run
      { duration; scheduler = sched; topology = topo; ramp = []; instrument }
      params
  in
  print_result scenario ~topo ~cc:cc_policy outcome;
  finish_observability ();
  if check_inv then
    match List.find_opt (fun c -> not (Invariants.ok c)) !checkers with
    | None -> Fmt.pr "invariants         : ok@."
    | Some c ->
        (match Invariants.report c with
        | Some r -> Fmt.epr "%s@." r
        | None -> ());
        exit 3

let scenario_arg =
  (* [fleet] is a registry scenario too, but has its own subcommand *)
  let names =
    List.filter (fun s -> s <> "fleet") Mptcp_exp.Spec.known_scenarios
  in
  Arg.(
    required
    & pos 0 (some (enum (List.map (fun s -> (s, s)) names))) None
    & info [] ~docv:"SCENARIO" ~doc:("One of: " ^ String.concat ", " names ^ "."))

let scenario_term =
  Term.(
    const run_scenario $ scenario_arg $ Fleet_cli.scheduler_arg
    $ Fleet_cli.seed_arg $ Fleet_cli.loss_arg $ duration_arg
    $ Fleet_cli.engine_arg $ faults_arg $ invariants_arg $ trace_arg
    $ metrics_arg $ metrics_interval_arg $ verbose_arg $ Fleet_cli.cc_arg
    $ topology_arg)

let scenario_cmd =
  Cmd.v
    (Cmd.info "simulate" ~version:"1.0.0"
       ~doc:
         "Run MPTCP scheduling scenarios in the simulator (see also: \
          simulate sweep)")
    scenario_term

let group =
  Cmd.group
    (Cmd.info "simulate" ~version:"1.0.0"
       ~doc:"Run MPTCP scheduling scenarios in the simulator")
    [
      Cmd.v
        (Cmd.info "run" ~doc:"Run a single scenario (the default command)")
        scenario_term;
      Mptcp_exp.Sweep_cli.cmd;
      Mptcp_exp.Fleet_cli.cmd;
    ]

let () =
  (* Force-link the compiler so its "threaded" engine registration runs even
     though this binary only selects engines by name. *)
  Progmp_compiler.Compile.register_engines ();
  (* cmdliner's Cmd.group treats every first positional argument as a
     subcommand name, which would break the classic [simulate bulk]
     spelling — dispatch to the group only when a real subcommand is
     named, and keep the positional-scenario interface the default *)
  let subcommand =
    Array.length Sys.argv > 1
    && (Sys.argv.(1) = "run" || Sys.argv.(1) = "sweep"
       || Sys.argv.(1) = "fleet")
  in
  exit (Cmd.eval (if subcommand then group else scenario_cmd))
