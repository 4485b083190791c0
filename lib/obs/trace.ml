(** Structured trace events and sinks — the flight recorder's tape.

    Every event is a typed constructor; sinks serialize a flat
    field-per-event view of it, so the JSONL and CSV encodings cannot
    drift apart (both derive from {!fields}). Nothing in this module
    touches the simulator: the {!Recorder} derives events from simulator
    state and feeds them here. *)

type event =
  | Pkt_send of { sbf : int; count : int; bytes : int; retx : int }
      (** [count] segments ([retx] of them retransmissions) left the
          subflow since the previous event *)
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

let name = function
  | Pkt_send _ -> "pkt_send"
  | Pkt_ack _ -> "pkt_ack"
  | Pkt_loss _ -> "pkt_loss"
  | Rto_fired _ -> "rto"
  | Cwnd _ -> "cwnd"
  | Srtt _ -> "srtt"
  | Subflow_up _ -> "subflow_up"
  | Subflow_down _ -> "subflow_down"
  | Deliver _ -> "deliver"
  | Sched_invoke _ -> "sched_invoke"
  | Sched_action _ -> "sched_action"
  | Fault _ -> "fault"

type value = I of int | F of float | S of string

(** Flat field view of an event; both sinks serialize exactly this. *)
let fields = function
  | Pkt_send { sbf; count; bytes; retx } ->
      [ ("sbf", I sbf); ("count", I count); ("bytes", I bytes); ("retx", I retx) ]
  | Pkt_ack { sbf; bytes; snd_una } ->
      [ ("sbf", I sbf); ("bytes", I bytes); ("snd_una", I snd_una) ]
  | Pkt_loss { sbf; lost } -> [ ("sbf", I sbf); ("lost", I lost) ]
  | Rto_fired { sbf; rto } -> [ ("sbf", I sbf); ("rto", F rto) ]
  | Cwnd { sbf; cwnd; ssthresh } ->
      [ ("sbf", I sbf); ("cwnd", F cwnd); ("ssthresh", F ssthresh) ]
  | Srtt { sbf; srtt; rttvar } ->
      [ ("sbf", I sbf); ("srtt", F srtt); ("rttvar", F rttvar) ]
  | Subflow_up { sbf } | Subflow_down { sbf } -> [ ("sbf", I sbf) ]
  | Deliver { seq; size } -> [ ("seq", I seq); ("size", I size) ]
  | Sched_invoke { scheduler; engine; actions; regs_read; regs_written; q; qu; rq }
    ->
      [
        ("scheduler", S scheduler);
        ("engine", S engine);
        ("actions", I actions);
        ("regs_read", I regs_read);
        ("regs_written", I regs_written);
        ("q", I q);
        ("qu", I qu);
        ("rq", I rq);
      ]
  | Sched_action { scheduler; action } ->
      [ ("scheduler", S scheduler); ("action", S action) ]
  | Fault { path; fault } -> [ ("path", S path); ("fault", S fault) ]

(* ---------- sinks ---------- *)

type t = {
  write : float -> event -> unit;
  flush : unit -> unit;
  mutable events : int;
}

let emit t ~time ev =
  t.events <- t.events + 1;
  t.write time ev

let event_count t = t.events

let flush t = t.flush ()

(* JSON string escaping: the control characters, quote and backslash;
   everything else (including UTF-8 bytes) passes through. *)
let json_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let add_float b f =
  (* %.6f keeps timestamps exact at microsecond resolution without
     exponent forms JSON consumers may mishandle *)
  Buffer.add_string b (Printf.sprintf "%.6f" f)

(** JSONL sink: one self-describing object per line,
    [{"t":...,"ev":"...",...}]. The channel is not closed by the sink. *)
let jsonl oc =
  let b = Buffer.create 256 in
  let write time ev =
    Buffer.clear b;
    Buffer.add_string b "{\"t\":";
    add_float b time;
    Buffer.add_string b ",\"ev\":";
    json_string b (name ev);
    List.iter
      (fun (k, v) ->
        Buffer.add_char b ',';
        json_string b k;
        Buffer.add_char b ':';
        match v with
        | I i -> Buffer.add_string b (string_of_int i)
        | F f -> add_float b f
        | S s -> json_string b s)
      (fields ev);
    Buffer.add_string b "}\n";
    Buffer.output_buffer oc b
  in
  { write; flush = (fun () -> Stdlib.flush oc); events = 0 }

(* The CSV column set is the union of every event's fields; absent
   fields are empty cells. Kept in one place so the header and the rows
   cannot disagree. *)
let csv_columns =
  [
    "sbf"; "count"; "bytes"; "retx"; "snd_una"; "lost"; "rto"; "cwnd";
    "ssthresh"; "srtt"; "rttvar"; "seq"; "size"; "scheduler"; "engine";
    "actions"; "regs_read"; "regs_written"; "q"; "qu"; "rq"; "path"; "fault";
  ]

let csv_header = "time,event," ^ String.concat "," csv_columns

(* Quote a CSV cell only when it needs it. *)
let csv_cell b s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then begin
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string b "\"\"" else Buffer.add_char b c)
      s;
    Buffer.add_char b '"'
  end
  else Buffer.add_string b s

(** CSV sink: header plus one wide row per event (cells for fields the
    event does not carry stay empty). *)
let csv oc =
  output_string oc (csv_header ^ "\n");
  let b = Buffer.create 256 in
  let write time ev =
    Buffer.clear b;
    add_float b time;
    Buffer.add_char b ',';
    Buffer.add_string b (name ev);
    let fs = fields ev in
    List.iter
      (fun col ->
        Buffer.add_char b ',';
        match List.assoc_opt col fs with
        | None -> ()
        | Some (I i) -> Buffer.add_string b (string_of_int i)
        | Some (F f) -> add_float b f
        | Some (S s) -> csv_cell b s)
      csv_columns;
    Buffer.add_char b '\n';
    Buffer.output_buffer oc b
  in
  { write; flush = (fun () -> Stdlib.flush oc); events = 0 }

let to_file path =
  let oc = if path = "-" then stdout else open_out path in
  let t = (if Filename.check_suffix path ".csv" then csv else jsonl) oc in
  (t, fun () -> if path = "-" then flush t else close_out oc)

(** In-memory sink (tests): events in emission order via the getter. *)
let memory () =
  let acc = ref [] in
  ( { write = (fun time ev -> acc := (time, ev) :: !acc);
      flush = (fun () -> ());
      events = 0;
    },
    fun () -> List.rev !acc )

(** Callback sink: hand every event to [f] — in-process aggregation
    (e.g. counting invocations per scheduler) without serializing. *)
let callback f =
  { write = (fun time ev -> f ~time ev); flush = (fun () -> ()); events = 0 }

(** Fan a single emission out to several sinks. *)
let tee sinks =
  {
    write = (fun time ev -> List.iter (fun s -> emit s ~time ev) sinks);
    flush = (fun () -> List.iter flush sinks);
    events = 0;
  }
