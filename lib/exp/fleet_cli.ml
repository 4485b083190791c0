(** The [simulate fleet] subcommand: host an open-loop fleet — Poisson arrivals, heavy-tailed
    flow sizes, recycled connection slots over shared link groups — in
    one process and print the aggregate summary ({!Mptcp_obs.Fleet_metrics}).
    The single-command face of the [fleet] sweep scenario: same
    topology, same RNG streams, so a CLI run reproduces a sweep run
    bit for bit. *)

open Cmdliner
open Mptcp_sim

let scheduler_arg =
  Arg.(
    value
    & opt string "default"
    & info [ "scheduler"; "s" ] ~doc:"Scheduler name (see $(b,progmp list)).")

let engine_arg =
  Arg.(
    value
    & opt string "interpreter"
    & info [ "engine"; "backend" ] ~docv:"ENGINE"
        ~doc:
          "Scheduler execution engine, selected by name from the engine \
           registry (see $(b,progmp engines)).")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"RNG seed.")

let loss_arg =
  Arg.(value & opt float 0.0 & info [ "loss" ] ~doc:"Packet loss probability.")

let duration_arg =
  Arg.(
    value & opt float 60.0 & info [ "duration" ] ~doc:"Simulated seconds.")

let groups_arg =
  Arg.(
    value & opt int 1
    & info [ "groups" ] ~docv:"N"
        ~doc:
          "Independent shared-link groups; arriving connections are \
           assigned round-robin.")

let rate_arg =
  Arg.(
    value & opt float 50.0
    & info [ "rate" ] ~docv:"FLOWS/S"
        ~doc:"Open-loop Poisson arrival rate across the whole fleet.")

let size_arg =
  Arg.(
    value
    & opt string "default"
    & info [ "flow-size" ] ~docv:"DIST"
        ~doc:
          "Flow-size distribution: $(b,default), $(b,fixed:BYTES) or \
           $(b,pareto:XM:ALPHA:CAP).")

let ramp_arg =
  Arg.(
    value
    & opt (list ~sep:',' string) []
    & info [ "ramp" ] ~docv:"T:MULT,..."
        ~doc:
          "Diurnal rate ramp: comma-separated TIME:MULT breakpoints, \
           piecewise-linearly interpolated multipliers on $(b,--rate).")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write the aggregate gauge time series (live, arrivals, \
           decisions/s, heap size) as CSV to $(docv) ('-' for stdout).")

let interval_arg =
  Arg.(
    value & opt float 1.0
    & info [ "metrics-interval" ] ~docv:"SECONDS"
        ~doc:"Sampling interval for the aggregate gauges.")

let shards_arg =
  Arg.(
    value & opt int 1
    & info [ "shards" ] ~docv:"S"
        ~doc:
          "Shard the fleet across $(docv) OCaml domains (share-nothing: one \
           event loop per shard, groups split round-robin, merged totals). \
           Requires $(b,--groups) >= $(docv).")

let cc_arg =
  Arg.(
    value
    & opt string "lia"
    & info [ "cc" ] ~docv:"CC"
        ~doc:
          "Congestion-control coupling across subflows: \
           reno|lia|olia|coupled|ecoupled[:EPS].")

let eventq_arg =
  Arg.(
    value
    & opt string (Eventq.core_kind_to_string (Eventq.default_core ()))
    & info [ "eventq" ] ~docv:"CORE"
        ~doc:
          "Event-queue core: $(b,wheel) (hierarchical timing wheel, O(1) \
           schedule/cancel, the default) or $(b,heap) (binary min-heap \
           escape hatch). Results are bit-identical; only speed differs.")

let set_eventq ~prog s =
  match Eventq.core_kind_of_string s with
  | Ok k -> Eventq.set_default_core k
  | Error msg ->
      Fmt.epr "%s: --eventq: %s@." prog msg;
      exit 2

let fail fmt = Fmt.kstr (fun msg -> Fmt.epr "fleet: %s@." msg; exit 2) fmt

let run scheduler engine seed loss duration groups rate size ramp metrics
    interval shards cc eventq =
  set_eventq ~prog:"fleet" eventq;
  if groups < 1 then fail "--groups must be >= 1";
  if rate <= 0.0 then fail "--rate must be > 0";
  if shards < 1 then fail "--shards must be >= 1";
  if shards > groups then
    fail "--shards %d needs at least that many --groups (%d)" shards groups;
  let cc =
    match Congestion.of_string cc with Ok c -> c | Error m -> fail "%s" m
  in
  Progmp_compiler.Compile.register_engines ();
  ignore (Schedulers.Specs.load_all ());
  let sched =
    match Progmp_runtime.Scheduler.find scheduler with
    | Some s -> s
    | None -> fail "unknown scheduler %s" scheduler
  in
  let dist =
    match Traffic.parse_size size with Ok d -> d | Error m -> fail "%s" m
  in
  let ramp =
    match
      Result.bind
        (let rec map_m = function
           | [] -> Ok []
           | s :: rest ->
               Result.bind (Traffic.parse_ramp_point s) (fun p ->
                   Result.map (List.cons p) (map_m rest))
         in
         map_m ramp)
        Traffic.check_ramp
    with
    | Ok r -> r
    | Error m -> fail "%s" m
  in
  let results =
    Fleet_run.run ~interval
      ~scheduler:(sched, engine)
      ~cc ~seed ~loss ~duration ~groups ~shards
      ~rate:(fun t -> Traffic.rate_at ~ramp ~base:rate t)
      ~dist ()
  in
  let tot = Fleet_run.merged_totals results in
  let sim = Eventq.now (Fleet.clock results.(0).Fleet_run.sr_fleet) in
  Fmt.pr "simulated time     : %.3f s@." sim;
  if shards = 1 then Fmt.pr "%a" Mptcp_obs.Fleet_metrics.pp_summary
      results.(0).Fleet_run.sr_metrics
  else begin
    Fmt.pr "arrivals           : %d (completed %d, live %d, peak <= %d)@."
      tot.Fleet.t_arrivals tot.Fleet.t_completed tot.Fleet.t_live
      tot.Fleet.t_peak_live;
    Fmt.pr "slots              : %d over %d shards (recycled %d arrivals)@."
      (Fleet_run.slot_count results)
      shards
      (tot.Fleet.t_arrivals - Fleet_run.slot_count results);
    if tot.Fleet.t_completed > 0 then
      Fmt.pr "fct                : mean %.1f ms@."
        (tot.Fleet.t_fct_sum /. float_of_int tot.Fleet.t_completed *. 1e3)
  end;
  Fmt.pr "offered load       : %g flows/s, mean size %.0f B@." rate
    (Traffic.mean_size dist);
  Fmt.pr "delivered          : %d bytes (%d wire bytes)@."
    tot.Fleet.t_delivered_bytes tot.Fleet.t_wire_bytes;
  Fmt.pr "scheduler          : %d executions, %d pushes@."
    tot.Fleet.t_executions tot.Fleet.t_pushes;
  match metrics with
  | None -> ()
  | Some file ->
      let oc = if file = "-" then stdout else open_out file in
      if shards = 1 then
        Mptcp_obs.Fleet_metrics.to_csv oc results.(0).Fleet_run.sr_metrics
      else begin
        output_string oc (Mptcp_obs.Fleet_metrics.csv_header ^ "\n");
        List.iter
          (Mptcp_obs.Fleet_metrics.write_row oc)
          (Fleet_run.merged_samples results)
      end;
      if file = "-" then flush oc else close_out oc

let cmd =
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Host an open-loop fleet of concurrent MPTCP connections (Poisson \
          arrivals, heavy-tailed flow sizes, recycled slots) in one process")
    Term.(
      const run $ scheduler_arg $ engine_arg $ seed_arg $ loss_arg
      $ duration_arg $ groups_arg $ rate_arg $ size_arg $ ramp_arg
      $ metrics_arg $ interval_arg $ shards_arg $ cc_arg $ eventq_arg)
