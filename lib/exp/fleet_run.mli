(** Sharded fleet execution: one open-loop fleet workload as [S]
    share-nothing shards (own {!Mptcp_sim.Eventq}, own OCaml 5 domain,
    owning the groups [g mod S = shard]) with merged results. Every
    shard regenerates the same traffic streams and skips non-owned
    arrivals, so aggregate totals match the unsharded run up to float
    summation order in [t_fct_sum]; merged [t_peak_live] sums per-shard
    peaks (upper bound on the simultaneous peak). Each shard's clock is
    built by {!Mptcp_sim.Fleet.create}: a timing wheel whose quantum is
    derived from the minimum link delay of the topology. *)

open Mptcp_sim

type shard_result = {
  sr_fleet : Fleet.t;
  sr_metrics : Mptcp_obs.Fleet_metrics.t;
  sr_events : int;  (** events executed by this shard's loop *)
}

val run :
  ?interval:float ->
  ?paths:Path_manager.path_spec list ->
  scheduler:Progmp_runtime.Scheduler.t * string ->
  cc:Congestion.policy ->
  seed:int ->
  loss:float ->
  duration:float ->
  groups:int ->
  shards:int ->
  rate:(float -> float) ->
  dist:Traffic.size_dist ->
  unit ->
  shard_result array
(** Run the fleet workload (per-group topology [paths], default
    {!Scenarios.fleet_group_paths}) across [shards] domains; returns one
    result per shard, shard 0 first. [rate] is the instantaneous global
    arrival rate. [shards = 1] runs inline on the calling domain — the
    exact single-fleet code path. *)

val merged_totals : shard_result array -> Fleet.totals
val slot_count : shard_result array -> int
val events : shard_result array -> int

val merged_samples : shard_result array -> Mptcp_obs.Fleet_metrics.sample list
(** Gauge rows summed across shards at identical sample times,
    truncated to the shortest shard series. *)
