(** Sharded fleet execution: run one open-loop fleet workload as [S]
    share-nothing shards — each shard a complete fleet instance on its
    own {!Mptcp_sim.Eventq} and OCaml 5 domain, owning the link groups
    [g] with [g mod S = shard] — and merge the results.

    Every shard regenerates the {e same} traffic streams (arrival times
    from stream −1,000,002, flow sizes from −1,000,001, both pure
    functions of the fleet seed) and calls {!Mptcp_sim.Fleet.arrive}
    for every global arrival; the fleet skips the arrivals whose group
    it does not own. Group-local state (link RNG streams keyed by
    global group id, per-group slot pools, arrival-indexed connection
    seeds) is a pure function of the group's own arrival subsequence,
    so the union over shards reproduces the unsharded fleet's work
    exactly: aggregate totals are identical up to float summation order
    in [t_fct_sum], and merged [t_peak_live] is the sum of per-shard
    peaks (an upper bound on the true simultaneous peak, since shards
    peak at their own times). The shard-invariance property test pins
    this contract.

    Discipline mirrors {!Sweep}: the engine registry and scheduler zoo
    are resolved on the calling domain before any worker exists. The
    scheduler compiles once, at the first slot any shard fills (the
    engine's compiled-code cache is shared under a mutex); every slot
    of every shard then instantiates from that code. *)

open Mptcp_sim

type shard_result = {
  sr_fleet : Fleet.t;
  sr_metrics : Mptcp_obs.Fleet_metrics.t;
  sr_events : int;  (** events executed by this shard's loop *)
}

(** Run the standard open-loop fleet workload ([Scenarios.fleet_group_paths]
    topology) across [shards] domains and return one result per shard
    (shard 0 first). [rate] is the instantaneous global arrival rate;
    with [shards = 1] the workload runs inline on the calling domain
    and is the exact single-fleet code path. *)
let run ?(interval = 1.0) ?paths ~scheduler ~cc ~seed ~loss ~duration ~groups
    ~shards ~rate ~dist () =
  if shards < 1 then Fmt.invalid_arg "Fleet_run.run: shards %d < 1" shards;
  let paths =
    match paths with Some p -> p | None -> Scenarios.fleet_group_paths ~loss
  in
  let run_shard idx () =
    let fleet =
      Fleet.create ~seed ~cc ~scheduler ~groups ~shard:(idx, shards) ~paths ()
    in
    let fm = Mptcp_obs.Fleet_metrics.attach ~interval ~until:duration fleet in
    Scenarios.drive_arrivals fleet ~seed ~rate ~until:duration dist;
    let events = Fleet.run ~until:duration fleet in
    { sr_fleet = fleet; sr_metrics = fm; sr_events = events }
  in
  if shards = 1 then [| run_shard 0 () |]
  else begin
    let workers =
      Array.init (shards - 1) (fun i -> Domain.spawn (run_shard (i + 1)))
    in
    let first = run_shard 0 () in
    Array.append [| first |] (Array.map Domain.join workers)
  end

let merged_totals results =
  Array.fold_left
    (fun acc r ->
      match acc with
      | None -> Some (Fleet.totals r.sr_fleet)
      | Some t -> Some (Fleet.merge_totals t (Fleet.totals r.sr_fleet)))
    None results
  |> Option.get

let slot_count results =
  Array.fold_left (fun n r -> n + Fleet.slot_count r.sr_fleet) 0 results

let events results = Array.fold_left (fun n r -> n + r.sr_events) 0 results

(** Merge the shards' gauge time series into one: samples are taken at
    the same simulated times on every shard (interval-aligned from 0),
    so row [i] sums the shards' rows [i] — counters, event-heap sizes,
    rates and GC gauges add; truncated to the shortest shard series. *)
let merged_samples results =
  let series =
    Array.map
      (fun r -> Array.of_list (Mptcp_obs.Fleet_metrics.samples r.sr_metrics))
      results
  in
  let rows =
    Array.fold_left (fun m s -> min m (Array.length s)) max_int series
  in
  let open Mptcp_obs.Fleet_metrics in
  List.init rows (fun i ->
      Array.fold_left
        (fun acc s ->
          let x = s.(i) in
          {
            s_time = x.s_time;
            s_live = acc.s_live + x.s_live;
            s_peak_live = acc.s_peak_live + x.s_peak_live;
            s_arrivals = acc.s_arrivals + x.s_arrivals;
            s_completed = acc.s_completed + x.s_completed;
            s_heap_nodes = acc.s_heap_nodes + x.s_heap_nodes;
            s_executions = acc.s_executions + x.s_executions;
            s_decisions_per_sec =
              acc.s_decisions_per_sec +. x.s_decisions_per_sec;
            s_delivered_bytes = acc.s_delivered_bytes + x.s_delivered_bytes;
            s_minor_words = acc.s_minor_words +. x.s_minor_words;
            s_major_words = acc.s_major_words +. x.s_major_words;
            s_compactions = acc.s_compactions + x.s_compactions;
            s_heap_words = acc.s_heap_words + x.s_heap_words;
          })
        {
          s_time = 0.0;
          s_live = 0;
          s_peak_live = 0;
          s_arrivals = 0;
          s_completed = 0;
          s_heap_nodes = 0;
          s_executions = 0;
          s_decisions_per_sec = 0.0;
          s_delivered_bytes = 0;
          s_minor_words = 0.0;
          s_major_words = 0.0;
          s_compactions = 0;
          s_heap_words = 0;
        }
        series)
