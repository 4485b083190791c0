(** Cross-layer invariant checking for a running connection.

    An attached checker re-validates, after every simulator event, the
    properties that must survive arbitrary network dynamics (fault
    scripts, outages, burst loss):

    - per-subflow sequence accounting ([snd_una <= snd_nxt], in-flight
      within the unacknowledged window);
    - in-flight <= cwnd accounting against the congestion-window
      high-watermark since the flight last drained (cwnd may shrink below
      the flight in recovery, but nothing may be transmitted beyond it);
    - cwnd never below one segment;
    - no subflow progress while its link is down (receiver frozen under a
      dark data link, sender acks frozen under a dark ack link);
    - meta-level bytes delivered exactly once — in order under [Ordered]
      delivery — with consistent byte counters;
    - scheduler-visible views ({!Tcp_subflow.view}) reflecting ground
      truth, including injected backup/lossy state;
    - queue hygiene: after the cumulative data ack advances, no packet
      below it is left in Q, QU or RQ (scanned only on an advance).

    Violations are collected rather than raised, so a run completes and
    everything can be reported at once. *)

type t

val attach : ?max_recorded:int -> Connection.t -> t
(** Attach a checker to [conn]: wraps the meta socket's delivery
    callback (chaining with whatever is already installed — attach
    {e after} any experiment-side [on_deliver] hook) and registers an
    event-queue observer so every subsequent event is validated.
    [max_recorded] caps stored messages (default 20); the total count is
    always exact. *)

val check_now : t -> unit
(** Run every check immediately (also runs automatically after each
    event). *)

val ok : t -> bool

val total : t -> int
(** Total violations observed, including ones beyond the recording
    cap. *)

val violations : t -> string list
(** Recorded violation messages, oldest first. *)

val report : t -> string option
(** [None] when clean; otherwise a multi-line summary. *)
