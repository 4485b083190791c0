(** Structured trace events and sinks — the flight recorder's tape.

    The event taxonomy covers the paper's observable surface: packet
    lifecycle (send/ack/loss/RTO), per-subflow estimator updates
    (cwnd/ssthresh, srtt/rttvar), subflow lifecycle, data-level
    delivery, scheduler decisions (which scheduler/engine ran, which
    registers it touched, what it emitted) and fault-injection
    transitions. Sinks serialize a single flat field view ({!fields}),
    so the JSONL and CSV encodings cannot drift apart. *)

type event =
  | Pkt_send of { sbf : int; count : int; bytes : int; retx : int }
      (** [count] segments ([retx] of them retransmissions) left the
          subflow since the previous simulator event *)
  | Pkt_ack of { sbf : int; bytes : int; snd_una : int }
  | Pkt_loss of { sbf : int; lost : int }
      (** [lost] new suspected losses (SACK holes / recovery entries) *)
  | Rto_fired of { sbf : int; rto : float }
      (** retransmission timeout fired; [rto] is the backed-off value *)
  | Cwnd of { sbf : int; cwnd : float; ssthresh : float }
  | Srtt of { sbf : int; srtt : float; rttvar : float }
  | Subflow_up of { sbf : int }
  | Subflow_down of { sbf : int }
  | Deliver of { seq : int; size : int }
      (** in-order data-level delivery to the application *)
  | Sched_invoke of {
      scheduler : string;
      engine : string;
      actions : int;
      regs_read : int;  (** bitmask, bit [i] is R(i+1) *)
      regs_written : int;
      q : int;
      qu : int;
      rq : int;  (** queue depths after the execution *)
    }
  | Sched_action of { scheduler : string; action : string }
      (** one per emitted action, in program order, after the
          [Sched_invoke] of the same execution *)
  | Fault of { path : string; fault : string }

val name : event -> string
(** Stable wire name ("pkt_send", "sched_invoke", ...). *)

type value = I of int | F of float | S of string

val fields : event -> (string * value) list
(** Flat field view; both sinks serialize exactly this. *)

type t
(** A sink accepting timestamped events. *)

val emit : t -> time:float -> event -> unit

val event_count : t -> int

val flush : t -> unit
(** Flush buffered output (channels are never closed by the sink). *)

val jsonl : out_channel -> t
(** One self-describing JSON object per line:
    [{"t":1.234567,"ev":"pkt_send","sbf":0,...}]. *)

val csv : out_channel -> t
(** Header plus one wide row per event; cells for fields the event does
    not carry stay empty. *)

val csv_header : string

val to_file : string -> t * (unit -> unit)
(** Open a file sink — [path] ["-"] is stdout; a [.csv] suffix selects
    {!csv}, anything else {!jsonl} — with its finisher, which flushes
    stdout or closes the file. *)

val memory : unit -> t * (unit -> (float * event) list)
(** In-memory sink (tests); the getter returns events in emission
    order. *)

val callback : (time:float -> event -> unit) -> t
(** Callback sink: hand every event to the function — in-process
    aggregation (e.g. counting invocations per scheduler) without
    serializing. *)

val tee : t list -> t
(** Fan each emission out to several sinks. *)
