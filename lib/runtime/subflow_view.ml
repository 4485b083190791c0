(** Per-execution snapshot of a subflow's state.

    The host (the MPTCP simulator, or a test harness) builds one view per
    subflow before each scheduler execution; the programming model
    guarantees that subflow properties do not change during a single
    execution, which this snapshot realizes. The fields are mutable only
    so a host can reuse one record per subflow across executions (the
    simulator's snapshot arena refills views in place instead of
    allocating sixteen-field records per decision); every consumer must
    treat a view as frozen for the duration of an execution. A refill
    may skip the fields outside the running scheduler's read set
    ({!Progmp_lang.Props.read_set}). Units
    follow {!Progmp_lang.Props}: times in microseconds, throughput in
    bytes/second. *)

type t = {
  mutable id : int;  (** stable subflow identifier, 0-based and < 62 *)
  mutable rtt_us : int;
  mutable rtt_avg_us : int;
  mutable rtt_var_us : int;
  mutable cwnd : int;  (** congestion window, segments *)
  mutable ssthresh : int;
  mutable skbs_in_flight : int;
  mutable queued : int;
      (** segments handed to the subflow, not yet on the wire *)
  mutable lost_skbs : int;
  mutable is_backup : bool;
  mutable tsq_throttled : bool;
  mutable lossy : bool;
  mutable rto_us : int;
  mutable throughput_bps : int;  (** cwnd-based estimate, bytes per second *)
  mutable mss : int;
  mutable receive_window_bytes : int;  (** free receive-window space *)
}

let default =
  {
    id = 0;
    rtt_us = 10_000;
    rtt_avg_us = 10_000;
    rtt_var_us = 1_000;
    cwnd = 10;
    ssthresh = 64;
    skbs_in_flight = 0;
    queued = 0;
    lost_skbs = 0;
    is_backup = false;
    tsq_throttled = false;
    lossy = false;
    rto_us = 200_000;
    throughput_bps = 1_000_000;
    mss = 1448;
    receive_window_bytes = 1 lsl 20;
  }

(** A fresh, unshared copy (of [v], or of {!default}) — what arenas of
    in-place-refilled views must be seeded with, so that no two slots
    alias one record. *)
let copy v = { v with id = v.id }

let fresh () = copy default

(** [has_window_for v pkt] — the model's [HAS_WINDOW_FOR]: does the
    receive window admit this packet on top of what is in flight? *)
let has_window_for v (p : Packet.t) =
  v.receive_window_bytes - (v.skbs_in_flight * v.mss) >= p.Packet.size

(** Property read used by both the interpreter and the VM helpers;
    booleans are encoded as 0/1 for the compiled backend. *)
let prop_int v (prop : Progmp_lang.Props.subflow_prop) =
  match prop with
  | Rtt -> v.rtt_us
  | Rtt_avg -> v.rtt_avg_us
  | Rtt_var -> v.rtt_var_us
  | Cwnd -> v.cwnd
  | Ssthresh -> v.ssthresh
  | Skbs_in_flight -> v.skbs_in_flight
  | Queued -> v.queued
  | Lost_skbs -> v.lost_skbs
  | Is_backup -> if v.is_backup then 1 else 0
  | Tsq_throttled -> if v.tsq_throttled then 1 else 0
  | Lossy -> if v.lossy then 1 else 0
  | Sbf_id -> v.id
  | Rto -> v.rto_us
  | Throughput -> v.throughput_bps
  | Mss -> v.mss

let pp ppf v =
  Fmt.pf ppf "sbf#%d(rtt=%dus,cwnd=%d,inflight=%d%s%s)" v.id v.rtt_us v.cwnd
    v.skbs_in_flight
    (if v.is_backup then ",backup" else "")
    (if v.lossy then ",lossy" else "")
