(** Fleet-level aggregate observability: periodic gauge samples (live
    connections, arrivals, completions, event-queue size, scheduler
    decisions per second) plus a log-bucketed flow-completion-time
    histogram fed by {!Mptcp_sim.Fleet.set_on_retire}. O(buckets +
    window) memory however many flows pass through — the scalable
    alternative to one {!Metrics} collector per transient connection. *)

type sample = {
  s_time : float;
  s_live : int;
  s_peak_live : int;
  s_arrivals : int;
  s_completed : int;
  s_heap_nodes : int;
      (** live event-queue nodes ({!Mptcp_sim.Eventq.live_nodes}) *)
  s_executions : int;  (** cumulative scheduler decisions *)
  s_decisions_per_sec : float;
      (** decisions over the last interval, per simulated second *)
  s_delivered_bytes : int;  (** cumulative *)
  (* GC gauges ({!Gc.quick_stat}): allocation drift is visible in the
     time series, not just the bench summary *)
  s_minor_words : float;  (** cumulative minor allocations, words *)
  s_major_words : float;  (** cumulative major allocations, words *)
  s_compactions : int;
  s_heap_words : int;  (** major heap size now *)
}

type t

val attach :
  ?interval:float ->
  ?on_retire:(fct:float -> size:int -> delivered:int -> unit) ->
  until:float ->
  Mptcp_sim.Fleet.t ->
  t
(** Attach a collector: one gauge sample every [interval] (default 1)
    simulated seconds, pre-scheduled up to [until] so the queue still
    drains, and an FCT histogram counting every retired flow. Installs
    the fleet's retirement hook; pass [on_retire] to chain another
    completion callback behind the histogram update. *)

val samples : t -> sample list
(** Gauge samples, oldest first. *)

val sample_now : t -> sample
(** Take (and retain) one sample immediately. *)

val fct_count : t -> int
val fct_max : t -> float
val mean_fct : t -> float

val fct_percentile : t -> float -> float
(** [fct_percentile t q] for [0 <= q <= 1]: approximate quantile in
    seconds — the geometric midpoint of the quarter-octave histogram
    bucket holding the [q]-quantile flow. *)

val csv_header : string
val write_row : out_channel -> sample -> unit

val to_csv : out_channel -> t -> unit
(** Header plus every retained sample, oldest first. *)

val pp_summary : Format.formatter -> t -> unit
(** Human-readable fleet summary: arrival/completion/slot counters and
    the FCT mean, p50, p99 and max. *)
