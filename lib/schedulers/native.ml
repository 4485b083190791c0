(** Hand-written OCaml schedulers — the counterpart of the paper's
    in-kernel C implementations, used as the baseline in the overhead
    evaluation (Fig. 9) and as semantic oracles in the differential test
    suite. Each function is a decision function compatible with
    {!Progmp_runtime.Scheduler.install_custom} and implements exactly the
    same policy as the corresponding spec in {!Specs}. *)

open Progmp_runtime

let minrtt_of views =
  match views with
  | [] -> None
  | v :: rest ->
      Some
        (List.fold_left
           (fun best (v : Subflow_view.t) ->
             if v.Subflow_view.rtt_us < best.Subflow_view.rtt_us then v else best)
           v rest)

let window_open (v : Subflow_view.t) =
  v.Subflow_view.cwnd > v.Subflow_view.skbs_in_flight + v.Subflow_view.queued

(** The default min-RTT scheduler (same policy as {!Specs.default}):
    skip TSQ-throttled and lossy subflows, use backups only when no
    active subflow exists, prefer the reinjection queue, pick the open
    subflow with the lowest RTT. *)
let default (env : Env.t) =
  let views = Array.to_list env.Env.subflows in
  let candidates =
    List.filter
      (fun (v : Subflow_view.t) ->
        (not v.Subflow_view.tsq_throttled) && not v.Subflow_view.lossy)
      views
  in
  let actives =
    List.filter (fun (v : Subflow_view.t) -> not v.Subflow_view.is_backup) views
  in
  let pool =
    if actives = [] then candidates
    else
      List.filter (fun (v : Subflow_view.t) -> not v.Subflow_view.is_backup) candidates
  in
  let open_sbfs = List.filter window_open pool in
  match minrtt_of open_sbfs with
  | None -> ()
  | Some target ->
      let queue =
        if not (Pqueue.is_empty env.Env.rq) then Some env.Env.rq
        else if not (Pqueue.is_empty env.Env.q) then Some env.Env.q
        else None
      in
      (match queue with
      | Some q ->
          let pkt = Pqueue.pop_front q in
          Env.record_pop env q pkt;
          Env.emit_push env ~sbf_id:target.Subflow_view.id pkt
      | None -> ())

(** Native round robin (same policy as {!Specs.round_robin}; the cursor
    lives in scheduler register R3, exactly like the spec, so both
    variants are interchangeable mid-connection). *)
let round_robin (env : Env.t) =
  let views = Array.to_list env.Env.subflows in
  let sbfs =
    List.filter
      (fun (v : Subflow_view.t) ->
        (not v.Subflow_view.tsq_throttled) && not v.Subflow_view.lossy)
      views
  in
  let cursor = Env.get_register env 2 in
  let cursor = if cursor >= List.length sbfs then 0 else cursor in
  if cursor <> Env.get_register env 2 then Env.set_register env 2 cursor;
  if not (Pqueue.is_empty env.Env.q) then begin
    match List.nth_opt sbfs cursor with
    | Some v ->
        if window_open v then begin
          (* Q is non-empty: the pop yields a packet *)
          let pkt = Pqueue.pop_front env.Env.q in
          Env.record_pop env env.Env.q pkt;
          Env.emit_push env ~sbf_id:v.Subflow_view.id pkt
        end;
        Env.set_register env 2 (cursor + 1)
    | None -> ()
  end

(** Native RedundantIfNoQ (same policy as {!Specs.redundant_if_no_q}). *)
let redundant_if_no_q (env : Env.t) =
  let candidates = List.filter window_open (Array.to_list env.Env.subflows) in
  List.iter
    (fun (v : Subflow_view.t) ->
      if not (Pqueue.is_empty env.Env.q) then begin
        let pkt = Pqueue.pop_front env.Env.q in
        Env.record_pop env env.Env.q pkt;
        Env.emit_push env ~sbf_id:v.Subflow_view.id pkt
      end
      else begin
        let found = ref None in
        (let n = Pqueue.length env.Env.qu in
         let rec scan i =
           if i < n && !found = None then begin
             (match Pqueue.nth env.Env.qu i with
             | Some p when not (Packet.sent_on p ~sbf_id:v.Subflow_view.id) ->
                 found := Some p
             | Some _ | None -> ());
             scan (i + 1)
           end
         in
         scan 0);
        match !found with
        | Some p -> Env.emit_push env ~sbf_id:v.Subflow_view.id p
        | None -> ()
      end)
    candidates

(** Install a native engine on a loaded scheduler. *)
let install (sched : Scheduler.t) engine =
  Scheduler.install_custom sched ~name:"native" engine
