(** Parallel campaign execution on OCaml 5 domains.

    A {!Spec.t} grid is executed across a fixed pool of domains pulling
    run indices from one atomic counter. Every run owns its entire
    world: a fresh {!Mptcp_sim.Connection} (event queue, links, RNG
    seeded from the run's own seed) and a private scheduler instance, so
    no mutable simulation state is shared between domains. The report is
    assembled from per-index result slots in [run_id] order, making it
    independent of scheduling interleavings by construction: [--jobs 1]
    and [--jobs N] produce {!equal_report}-equal reports. A run's world
    comes from {!Scenarios}. *)

type run_result = Scenarios.run_result = {
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

type group = {
  g_scenario : string;
  g_scheduler : string;
  g_engine : string;
  g_cc : string;
  g_topology : string;
  g_loss : float;
  g_fleet : int;
  g_rate : float;
  g_size : string;
  g_fault : string;
  g_runs : int;  (** seeds aggregated *)
  g_completed : int;  (** runs with a completion time *)
  g_goodput_mean : float;
  g_goodput_min : float;
  g_goodput_max : float;
  g_completion_mean : float;  (** over completed runs; 0 when none *)
  g_inv_total : int;
}

type report = {
  spec : Spec.t;
  jobs : int;  (** how this report was produced; not part of equality *)
  runs : run_result list;  (** ordered by [run_id] *)
  groups : group list;  (** aggregated over seeds, expansion order *)
}

val fleet_group_paths :
  loss:float -> Mptcp_sim.Path_manager.path_spec list
(** {!Scenarios.fleet_group_paths}: the per-group topology of the
    open-loop [fleet] scenario. *)

val fleet_thin_paths :
  loss:float -> Mptcp_sim.Path_manager.path_spec list
(** {!Scenarios.fleet_thin_paths}: its thin-access variant. *)

val equal_report : report -> report -> bool
(** Structural equality modulo the job count — the determinism contract
    between serial and parallel executions of one campaign. *)

val default_jobs : unit -> int
(** [max 1 (Domain.recommended_domain_count ())]. *)

val execute : ?force_jobs:bool -> ?jobs:int -> Spec.t -> (report, string) result
(** Run the campaign on [jobs] domains (default {!default_jobs}; the
    calling domain is one of them, so [jobs = 1] never spawns). A [jobs]
    above {!default_jobs} is clamped to it with a note on stderr —
    domains are heavyweight and oversubscription only adds contention —
    unless [force_jobs] is set (the [--jobs-force] escape hatch, for
    oversubscription benchmarks). All shared setup — scheduler zoo,
    engine registry, fault scripts — is resolved and validated on the
    calling domain before any worker starts; workers only read it.
    [Error] on unknown scheduler/engine names, unreadable fault scripts,
    or a failed run. *)

val to_csv : report -> string
(** One line per run, [run_id] order; list-valued cells are
    [k=v;k=v]-encoded. *)

val to_json : report -> string
(** The full report (runs + seed-aggregated groups) as one JSON
    object. *)

val pp_report : Format.formatter -> report -> unit
(** Deterministic summary: one line per aggregate group. *)
