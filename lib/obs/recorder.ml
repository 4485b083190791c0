(** The flight recorder: derives {!Trace} events from a running
    connection and forwards them to a sink.

    Three taps feed the tape:

    - a state-diffing event-queue observer (the {!Invariants} pattern):
      after every simulator event, per-subflow counters and estimator
      state are compared against the previous snapshot and the deltas
      become packet/estimator/lifecycle events — the simulator itself is
      not modified;
    - the {!Progmp_runtime.Scheduler} decision-trace hook, scoped to
      this connection's environment by physical equality, yielding
      [Sched_invoke]/[Sched_action] events with register access masks;
    - the {!Mptcp_sim.Faults} transition hook, scoped to this
      connection, yielding [Fault] events.

    With no recorder attached the hot paths stay allocation-free: the
    scheduler and fault hooks are single option refs, and the observer
    only exists once {!attach} was called. *)

open Mptcp_sim

(* Previous per-subflow snapshot, mutated in place on every diff. *)
type sbf_prev = {
  mutable p_segs_sent : int;
  mutable p_segs_retx : int;
  mutable p_bytes_sent : int;
  mutable p_bytes_acked : int;
  mutable p_snd_una : int;
  mutable p_lost_skbs : int;
  mutable p_cwnd : float;
  mutable p_ssthresh : float;
  mutable p_srtt : float;
  mutable p_rttvar : float;
  mutable p_rto : float;
  mutable p_established : bool;
}

type t = {
  conn : Connection.t;
  sink : Trace.t;
  env : Progmp_runtime.Env.t;  (** the connection's env, the scoping key *)
  prev : (int, sbf_prev) Hashtbl.t;
  mutable active : bool;
}

let baseline (s : Tcp_subflow.t) =
  {
    p_segs_sent = s.Tcp_subflow.segs_sent;
    p_segs_retx = s.Tcp_subflow.segs_retx;
    p_bytes_sent = s.Tcp_subflow.bytes_sent;
    p_bytes_acked = s.Tcp_subflow.bytes_acked;
    p_snd_una = s.Tcp_subflow.snd_una;
    p_lost_skbs = s.Tcp_subflow.lost_skbs;
    p_cwnd = s.Tcp_subflow.f.cwnd;
    p_ssthresh = s.Tcp_subflow.f.ssthresh;
    p_srtt = s.Tcp_subflow.f.srtt;
    p_rttvar = s.Tcp_subflow.f.rttvar;
    p_rto = s.Tcp_subflow.rto;
    p_established = s.Tcp_subflow.established;
  }

let diff_subflow t ~time (s : Tcp_subflow.t) =
  match Hashtbl.find_opt t.prev s.Tcp_subflow.id with
  | None ->
      (* first sighting (attach time, or a path added later): take the
         baseline silently; later establishment still shows up as a flip *)
      Hashtbl.replace t.prev s.Tcp_subflow.id (baseline s)
  | Some p ->
      let sbf = s.Tcp_subflow.id in
      let emit ev = Trace.emit t.sink ~time ev in
      if s.Tcp_subflow.established <> p.p_established then begin
        emit
          (if s.Tcp_subflow.established then Trace.Subflow_up { sbf }
           else Trace.Subflow_down { sbf });
        p.p_established <- s.Tcp_subflow.established
      end;
      (* RTO detection by its arithmetic signature: recovery with cause
         [`Rto] sets cwnd to 1 and backs the timer off to
         min 60 (2 * rto) in one event. Back-to-back timeouts already at
         the 60 s cap leave no delta and are not re-reported. *)
      if
        s.Tcp_subflow.rto > p.p_rto
        && s.Tcp_subflow.f.cwnd = 1.0
        && s.Tcp_subflow.rto = Float.min 60.0 (p.p_rto *. 2.0)
      then emit (Trace.Rto_fired { sbf; rto = s.Tcp_subflow.rto });
      p.p_rto <- s.Tcp_subflow.rto;
      if
        s.Tcp_subflow.f.cwnd <> p.p_cwnd
        || s.Tcp_subflow.f.ssthresh <> p.p_ssthresh
      then begin
        emit
          (Trace.Cwnd
             { sbf; cwnd = s.Tcp_subflow.f.cwnd; ssthresh = s.Tcp_subflow.f.ssthresh });
        p.p_cwnd <- s.Tcp_subflow.f.cwnd;
        p.p_ssthresh <- s.Tcp_subflow.f.ssthresh
      end;
      if s.Tcp_subflow.f.srtt <> p.p_srtt || s.Tcp_subflow.f.rttvar <> p.p_rttvar
      then begin
        emit
          (Trace.Srtt
             { sbf; srtt = s.Tcp_subflow.f.srtt; rttvar = s.Tcp_subflow.f.rttvar });
        p.p_srtt <- s.Tcp_subflow.f.srtt;
        p.p_rttvar <- s.Tcp_subflow.f.rttvar
      end;
      if s.Tcp_subflow.segs_sent > p.p_segs_sent then begin
        emit
          (Trace.Pkt_send
             {
               sbf;
               count = s.Tcp_subflow.segs_sent - p.p_segs_sent;
               bytes = s.Tcp_subflow.bytes_sent - p.p_bytes_sent;
               retx = s.Tcp_subflow.segs_retx - p.p_segs_retx;
             });
        p.p_segs_sent <- s.Tcp_subflow.segs_sent;
        p.p_segs_retx <- s.Tcp_subflow.segs_retx;
        p.p_bytes_sent <- s.Tcp_subflow.bytes_sent
      end;
      if
        s.Tcp_subflow.bytes_acked > p.p_bytes_acked
        || s.Tcp_subflow.snd_una > p.p_snd_una
      then begin
        emit
          (Trace.Pkt_ack
             {
               sbf;
               bytes = s.Tcp_subflow.bytes_acked - p.p_bytes_acked;
               snd_una = s.Tcp_subflow.snd_una;
             });
        p.p_bytes_acked <- s.Tcp_subflow.bytes_acked;
        p.p_snd_una <- s.Tcp_subflow.snd_una
      end;
      if s.Tcp_subflow.lost_skbs > p.p_lost_skbs then begin
        emit
          (Trace.Pkt_loss { sbf; lost = s.Tcp_subflow.lost_skbs - p.p_lost_skbs });
        p.p_lost_skbs <- s.Tcp_subflow.lost_skbs
      end;
      (* re-establishment resets counters and estimators downward;
         resynchronize the snapshot so the next deltas are real *)
      if
        s.Tcp_subflow.segs_sent < p.p_segs_sent
        || s.Tcp_subflow.snd_una < p.p_snd_una
      then begin
        let b = baseline s in
        Hashtbl.replace t.prev s.Tcp_subflow.id b
      end

let observe t () =
  if t.active then begin
    let time = Connection.now t.conn in
    List.iter
      (fun m -> diff_subflow t ~time m.Path_manager.subflow)
      t.conn.Connection.paths
  end

(* ---------- global hook dispatch ----------

   Scheduler and fault hooks are process-global single slots (keeping
   the disabled path one deref); the recorder layer owns them and
   multiplexes across attached recorders, scoping by physical equality
   on the environment / connection. *)

let recorders : t list ref = ref []

let action_str = Fmt.to_to_string Progmp_runtime.Action.pp

let on_execution (xr : Progmp_runtime.Scheduler.execution_record) =
  List.iter
    (fun r ->
      if r.active && xr.Progmp_runtime.Scheduler.xr_env == r.env then begin
        let time = Connection.now r.conn in
        let env = r.env in
        Trace.emit r.sink ~time
          (Trace.Sched_invoke
             {
               scheduler = xr.Progmp_runtime.Scheduler.xr_scheduler;
               engine = xr.Progmp_runtime.Scheduler.xr_engine;
               actions = List.length xr.Progmp_runtime.Scheduler.xr_actions;
               regs_read = xr.Progmp_runtime.Scheduler.xr_regs_read;
               regs_written = xr.Progmp_runtime.Scheduler.xr_regs_written;
               q = Progmp_runtime.Pqueue.length env.Progmp_runtime.Env.q;
               qu = Progmp_runtime.Pqueue.length env.Progmp_runtime.Env.qu;
               rq = Progmp_runtime.Pqueue.length env.Progmp_runtime.Env.rq;
             });
        List.iter
          (fun a ->
            Trace.emit r.sink ~time
              (Trace.Sched_action
                 {
                   scheduler = xr.Progmp_runtime.Scheduler.xr_scheduler;
                   action = action_str a;
                 }))
          xr.Progmp_runtime.Scheduler.xr_actions
      end)
    !recorders

let on_fault conn (step : Faults.step) =
  List.iter
    (fun r ->
      if r.active && conn == r.conn then
        Trace.emit r.sink ~time:step.Faults.at
          (Trace.Fault
             {
               path = step.Faults.path;
               fault = Fmt.to_to_string Faults.pp_event step.Faults.ev;
             }))
    !recorders

let register r =
  recorders := r :: !recorders;
  Progmp_runtime.Scheduler.set_tracer on_execution;
  Faults.set_tracer on_fault

let unregister r =
  recorders := List.filter (fun r' -> r' != r) !recorders;
  if !recorders = [] then begin
    Progmp_runtime.Scheduler.clear_tracer ();
    Faults.clear_tracer ()
  end

(** Attach a recorder feeding [sink]. Events start flowing from the
    next simulator event; pre-existing state is taken as the silent
    baseline. Also wires the data-level delivery callback (chaining with
    whatever is installed — attach {e after} experiment hooks, like
    {!Invariants.attach}). *)
let attach sink (conn : Connection.t) =
  let t =
    {
      conn;
      sink;
      env = Meta_socket.env conn.Connection.meta;
      prev = Hashtbl.create 8;
      active = true;
    }
  in
  (* baseline every current subflow now, so attach-time state never
     reads as a burst of events *)
  List.iter
    (fun m ->
      Hashtbl.replace t.prev m.Path_manager.subflow.Tcp_subflow.id
        (baseline m.Path_manager.subflow))
    conn.Connection.paths;
  let meta = conn.Connection.meta in
  let prev_deliver = meta.Meta_socket.on_deliver in
  meta.Meta_socket.on_deliver <-
    (fun ~seq ~size ~time ->
      prev_deliver ~seq ~size ~time;
      if t.active then Trace.emit t.sink ~time (Trace.Deliver { seq; size }));
  Eventq.add_observer conn.Connection.clock (observe t);
  register t;
  t

(** Stop recording: the observer and hooks go quiet (the event-queue
    observer itself cannot be removed, so it stays as an inactive
    no-op). Flushes the sink. *)
let detach t =
  t.active <- false;
  unregister t;
  Trace.flush t.sink
