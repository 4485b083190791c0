(** The scenario registry: the one definition of every evaluation
    scenario's world — paths, connections, workload and run horizon —
    shared by every driver ([simulate], {!Sweep}, the tests).

    A driver hands {!run} the run's {!Spec.run_params}, the run's
    scheduler and an [instrument] hook, which attaches per-connection
    observers (faults, invariant checkers, recorders). The scenario
    creates every connection's socket with its own instance of the
    scheduler on the run's engine, calls the hook on it in its own fixed
    order, runs the clock and returns the measurements together with the
    hosted connections.

    The module also holds the canonical path sets — the OCaml analogues
    of the paper's two testbeds — that the scenarios, {!Figures}, the
    examples and the tests build their worlds on. *)

open Mptcp_sim

(** {1 Canonical path sets} *)

val wifi_lte :
  ?wifi_bw:float ->
  ?lte_bw:float ->
  ?wifi_loss:float ->
  ?lte_loss:float ->
  ?wifi_extra_delay:float ->
  ?lte_backup:bool ->
  unit ->
  Path_manager.path_spec list
(** The in-the-wild setup of Figs. 1/13/14: WiFi 10 ms RTT ~5 MB/s,
    LTE 40 ms RTT 4 MB/s; [lte_backup] (default true) flags LTE as the
    non-preferred subflow; [wifi_extra_delay] adds one-way delay to
    WiFi (Fig. 14's RTT-ratio sweep). *)

val fluctuate_wifi :
  Connection.t ->
  rng:Rng.t ->
  until:float ->
  ?interval:float ->
  low:float ->
  high:float ->
  unit ->
  unit
(** Redraw the WiFi rate uniformly in [low, high] every [interval]
    (default 0.5 s; call after [Connection.create]). *)

val mininet_two_subflows :
  ?bandwidth:float ->
  ?base_rtt:float ->
  ?rtt_ratio:float ->
  ?loss:float ->
  unit ->
  Path_manager.path_spec list
(** The Mininet-style setup of Figs. 10/12: equal bandwidth, RTTs
    [base_rtt] and [base_rtt *. rtt_ratio]. *)

val datacenter :
  ?bandwidth:float ->
  ?rtt:float ->
  ?loss:float ->
  ?n:int ->
  unit ->
  Path_manager.path_spec list
(** Short-RTT high-bandwidth paths (loss-compensation experiments). *)

(** {1 The registry} *)

type run_result = {
  r_params : Spec.run_params;
  r_sim_time : float;  (** final simulated clock, seconds *)
  r_delivered : int;  (** bytes delivered at the meta level *)
  r_goodput_bps : float;  (** bits/second over completion (or sim) time *)
  r_completion : float option;  (** flow completion time, seconds *)
  r_executions : int;  (** scheduler executions *)
  r_pushes : int;
  r_subflow_bytes : (string * int) list;  (** wire bytes per path *)
  r_inv_total : int;  (** invariant violations (0 when checking is off) *)
  r_inv_messages : string list;  (** recorded violation messages *)
  r_extra : (string * float) list;  (** scenario-specific measurements *)
}

type ctx = {
  duration : float;  (** simulated seconds *)
  scheduler : Progmp_runtime.Scheduler.t;
      (** instantiated on the run's engine for every connection's socket
          (every [fleet] slot's) *)
  topology : Topology.t option;
      (** [fairness]: the resolved shared-link topology *)
  ramp : Traffic.ramp;  (** [fleet]: diurnal arrival-rate ramp *)
  instrument : Connection.t -> unit;
      (** attach observers to a fresh connection; [fleet] hosts transient
          connections and never calls it *)
}

type outcome = {
  result : run_result;
      (** [r_inv_total] and [r_inv_messages] are left empty: the
          checkers belong to the driver's [instrument] hook *)
  conns : Connection.t list;  (** hosted connections, in creation order *)
  links : Topology.link_stats list;  (** [fairness]: shared-link counters *)
}

val names : string list
(** Registered scenario names, in registry order; the same set as
    {!Spec.known_scenarios}. *)

val run : ctx -> Spec.run_params -> outcome
(** Build and run the world of [p.scenario]. A pure function of [p] and
    the context: no state is shared with other runs. Raises
    [Invalid_argument] on an unknown scenario, an unparsable cc or flow
    size, or a [fairness] run without a topology. *)

val fleet_group_paths : loss:float -> Path_manager.path_spec list
(** Per-group topology of the open-loop [fleet] scenario: two shared
    paths of equal bandwidth and unequal delay. *)

val fleet_thin_paths : loss:float -> Path_manager.path_spec list
(** Thin-access variant: the same two-path shape at 1/100 the bandwidth
    with shallow buffers. *)

val drive_arrivals :
  Fleet.t ->
  seed:int ->
  rate:(float -> float) ->
  until:float ->
  Traffic.size_dist ->
  unit
(** The [fleet] scenario's open-loop arrivals into a fleet: Poisson
    times at instantaneous [rate] from RNG stream −1,000,002 of [seed],
    sizes from stream −1,000,001 (every shard replays the same streams). *)
