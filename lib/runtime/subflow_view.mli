(** Immutable per-execution snapshot of a subflow's state — the
    properties the programming model exposes (paper §3.1/Table 1). The
    host builds one view per subflow before each scheduler execution,
    and may fill only [id] and the fields in the running scheduler's
    read set ({!Progmp_lang.Props.read_set}). Times are in
    microseconds, throughput in bytes/second. *)

type t = {
  mutable id : int;  (** stable subflow identifier, 0-based and < 62 *)
  mutable rtt_us : int;
  mutable rtt_avg_us : int;
  mutable rtt_var_us : int;
  mutable cwnd : int;  (** congestion window, segments *)
  mutable ssthresh : int;
  mutable skbs_in_flight : int;
  mutable queued : int;  (** segments assigned but not yet on the wire *)
  mutable lost_skbs : int;
  mutable is_backup : bool;
  mutable tsq_throttled : bool;
  mutable lossy : bool;
  mutable rto_us : int;
  mutable throughput_bps : int;  (** achievable-rate estimate, bytes/second *)
  mutable mss : int;
  mutable receive_window_bytes : int;  (** free receive-window space *)
}
(** Fields are mutable only so hosts can refill one record per subflow
    across executions (arena reuse); consumers must treat views as
    frozen during an execution. *)

val default : t
(** A plausible 10 ms / cwnd-10 subflow; tests and examples override
    fields of interest. Shared — never mutate it; use {!copy}/{!fresh}
    for records that will be refilled. *)

val copy : t -> t
(** A fresh, unshared copy. *)

val fresh : unit -> t
(** [fresh () = copy default] — seed value for in-place-refilled
    arenas. *)

val has_window_for : t -> Packet.t -> bool
(** The model's [HAS_WINDOW_FOR]. *)

val prop_int : t -> Progmp_lang.Props.subflow_prop -> int
(** Property read shared by the interpreter and the VM helpers;
    booleans encode as 0/1. *)

val pp : Format.formatter -> t -> unit
