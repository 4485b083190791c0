(** Scalar statistics used by the bench harness and the experiment
    worlds. Time series come from [Mptcp_obs.Metrics]. *)

val mean : float list -> float

val percentile : float -> float list -> float
(** [percentile p l] for p in [0, 1]; 0 on the empty list. *)

val median : float list -> float

val jain : float list -> float
(** Jain fairness index, (sum x)^2 / (n * sum x^2): 1 = perfectly fair,
    1/n = maximally unfair; 0 on an empty or all-zero list. *)

val stddev : float list -> float
