(** Pluggable congestion-control window increase.

    Each {!Tcp_subflow.t} carries a [cc_on_ack] hook; this module
    provides the menu of policies used in the evaluation:

    - {!Reno}: standard uncoupled NewReno per subflow (the loss/recovery
      machinery lives in [Tcp_subflow] and is shared by every policy);
    - {!Lia}: the coupled increase of RFC 6356 ("Linked Increases"),
      which caps the aggregate aggressiveness of all subflows so MPTCP
      stays friendly to single-path TCP on shared bottlenecks;
    - {!Olia}: the opportunistic variant (Khalili et al.), which shifts
      increase budget toward the paths with the best rate while keeping
      the aggregate capped;
    - {!Coupled}: the fully-coupled increase (one virtual window spread
      across subflows) — maximally friendly, slow to use extra paths;
    - {!Ecoupled}: a convex blend between fully-coupled and uncoupled,
      parameterized by epsilon in [0, 1] (0 = fully coupled,
      1 = uncoupled Reno).

    The paper treats congestion control as a separate building block the
    scheduler merely observes (§2.1); every policy exposes the same CWND
    to the programming model. Slow start is uncoupled throughout, as in
    the Linux implementation, and subflows that are not [established]
    (failed, or not yet reestablished after a handover) are excluded
    from every aggregate so a dead path cannot depress the others. *)

type policy = Reno | Lia | Olia | Coupled | Ecoupled of float

let default_epsilon = 0.5

let names = [ "reno"; "lia"; "olia"; "coupled"; "ecoupled" ]

let of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "reno" -> Ok Reno
  | "lia" -> Ok Lia
  | "olia" -> Ok Olia
  | "coupled" -> Ok Coupled
  | "ecoupled" -> Ok (Ecoupled default_epsilon)
  | low -> (
      match String.index_opt low ':' with
      | Some i when String.sub low 0 i = "ecoupled" -> (
          let arg = String.sub low (i + 1) (String.length low - i - 1) in
          match float_of_string_opt arg with
          | Some e when Float.is_finite e && e >= 0.0 && e <= 1.0 ->
              Ok (Ecoupled e)
          | _ ->
              Error
                (Fmt.str "ecoupled epsilon %S out of [0, 1] (in %S)" arg s))
      | _ ->
          Error
            (Fmt.str "unknown congestion control %S (expected %s)" s
               (String.concat "|" names)))

let to_string = function
  | Reno -> "reno"
  | Lia -> "lia"
  | Olia -> "olia"
  | Coupled -> "coupled"
  | Ecoupled e ->
      if e = default_epsilon then "ecoupled" else Fmt.str "ecoupled:%g" e

let reno = Tcp_subflow.reno_on_ack

(* Shared helpers over the established subset: a subflow that failed or
   has not (re)established yet must not contribute window to any
   aggregate, nor receive coupled increase. *)

let established subflows =
  List.filter (fun s -> s.Tcp_subflow.established) subflows

let total_cwnd act =
  List.fold_left (fun a s -> a +. s.Tcp_subflow.f.cwnd) 0.0 act

(* The smoothed RTT, 50 ms before the first sample, at least 0.1 ms.
   Inlined, with the clamp as a comparison rather than [Float.max], so
   the per-ack LIA loop keeps it unboxed (a float returned from a call,
   or passed to [Float.max], is boxed). *)
let[@inline] rtt (s : Tcp_subflow.t) =
  let r =
    if s.Tcp_subflow.rtt_samples = 0 then 0.05 else s.Tcp_subflow.f.srtt
  in
  if r > 1e-4 then r else 1e-4

(** Install the LIA coupled increase across [subflows]: per ack,
    cwnd_i += min(alpha / cwnd_total, 1 / cwnd_i), with
    alpha = cwnd_total * max_i(cwnd_i / rtt_i^2) / (sum_i cwnd_i / rtt_i)^2.
    The aggregates are one loop over an array of the subflows, in list
    order (so every sum rounds as the list folds did), that builds no
    list and boxes no float: it runs on every congestion-avoidance
    ack. *)
let install_lia (subflows : Tcp_subflow.t list) =
  let all = Array.of_list subflows in
  let coupled (s : Tcp_subflow.t) acked =
    let f = s.Tcp_subflow.f in
    if f.cwnd < f.ssthresh then
      (* slow start is uncoupled, as in the Linux implementation *)
      f.cwnd <- f.cwnd +. float_of_int acked
    else begin
      let total = ref 0.0 and best = ref 0.0 and denom = ref 0.0 in
      for i = 0 to Array.length all - 1 do
        let x = all.(i) in
        if x.Tcp_subflow.established then begin
          let w = x.Tcp_subflow.f.cwnd and r = rtt x in
          total := !total +. w;
          let rate = w /. (r *. r) in
          if rate > !best then best := rate;
          denom := !denom +. (w /. r)
        end
      done;
      let total = !total and denom = !denom in
      let alpha =
        if denom <= 0.0 then 1.0 else total *. !best /. (denom *. denom)
      in
      let a = alpha /. if total > 1.0 then total else 1.0
      and b = 1.0 /. if f.cwnd > 1.0 then f.cwnd else 1.0 in
      let inc = if b < a then b else a in
      f.cwnd <- f.cwnd +. (float_of_int acked *. inc)
    end
  in
  List.iter (fun s -> s.Tcp_subflow.cc_on_ack <- coupled) subflows

(* OLIA-style increase (Khalili et al., "MPTCP is not Pareto-optimal"):
   cwnd_i += acked * ( (w_i/rtt_i^2) / (sum_j w_j/rtt_j)^2  +  alpha_i/w_i )
   where alpha_i shifts a 1/n budget from the max-window paths toward the
   best-rate paths. The reference algorithm ranks paths by bytes
   transferred since the last loss; we use w/rtt^2 (the instantaneous
   rate-growth potential) as the proxy, since the simulator's subflows
   don't track inter-loss epochs — documented deviation, same fixed
   points for the symmetric topologies exercised here. *)
let install_olia (subflows : Tcp_subflow.t list) =
  let alpha_for act (s : Tcp_subflow.t) =
    let n = List.length act in
    if n <= 1 then 0.0
    else begin
      let w_max =
        List.fold_left (fun a x -> Float.max a x.Tcp_subflow.f.cwnd) 0.0 act
      in
      let rate x = x.Tcp_subflow.f.cwnd /. (rtt x *. rtt x) in
      let r_max = List.fold_left (fun a x -> Float.max a (rate x)) 0.0 act in
      let maxw = List.filter (fun x -> x.Tcp_subflow.f.cwnd >= w_max) act in
      let collected =
        List.filter
          (fun x -> rate x >= r_max && x.Tcp_subflow.f.cwnd < w_max)
          act
      in
      let nf = float_of_int n in
      if collected = [] then 0.0
      else if List.memq s collected then
        1.0 /. (float_of_int (List.length collected) *. nf)
      else if List.memq s maxw then
        -1.0 /. (float_of_int (List.length maxw) *. nf)
      else 0.0
    end
  in
  let on_ack (s : Tcp_subflow.t) acked =
    if s.Tcp_subflow.f.cwnd < s.Tcp_subflow.f.ssthresh then
      s.Tcp_subflow.f.cwnd <- s.Tcp_subflow.f.cwnd +. float_of_int acked
    else begin
      let act = established subflows in
      let denom =
        List.fold_left (fun a x -> a +. (x.Tcp_subflow.f.cwnd /. rtt x)) 0.0 act
      in
      let denom = Float.max 1e-9 denom in
      let base = s.Tcp_subflow.f.cwnd /. (rtt s *. rtt s) /. (denom *. denom) in
      let inc =
        base +. (alpha_for act s /. Float.max 1.0 s.Tcp_subflow.f.cwnd)
      in
      (* never more aggressive than uncoupled Reno, never negative
         enough to shrink the window below one segment's worth *)
      let inc = Float.min inc (1.0 /. Float.max 1.0 s.Tcp_subflow.f.cwnd) in
      s.Tcp_subflow.f.cwnd <-
        Float.max 1.0 (s.Tcp_subflow.f.cwnd +. (float_of_int acked *. inc))
    end
  in
  List.iter (fun s -> s.Tcp_subflow.cc_on_ack <- on_ack) subflows

(* Fully-coupled increase: the subflows share one virtual AIMD window,
   cwnd_i += acked / cwnd_total — the most TCP-friendly point of the
   design space (and the slowest to exploit a second path). *)
let install_coupled (subflows : Tcp_subflow.t list) =
  let on_ack (s : Tcp_subflow.t) acked =
    if s.Tcp_subflow.f.cwnd < s.Tcp_subflow.f.ssthresh then
      s.Tcp_subflow.f.cwnd <- s.Tcp_subflow.f.cwnd +. float_of_int acked
    else begin
      let total = Float.max 1.0 (total_cwnd (established subflows)) in
      s.Tcp_subflow.f.cwnd <-
        s.Tcp_subflow.f.cwnd +. (float_of_int acked /. total)
    end
  in
  List.iter (fun s -> s.Tcp_subflow.cc_on_ack <- on_ack) subflows

(* Epsilon-coupled: convex blend of the uncoupled Reno increase (1/w_i)
   and the fully-coupled one (1/total), cwnd_i += acked *
   (eps/w_i + (1-eps)/total). eps = 1 recovers Reno, eps = 0 the
   fully-coupled policy; intermediate values trade friendliness against
   responsiveness (cf. the EWTCP/semicoupled family). *)
let install_ecoupled epsilon (subflows : Tcp_subflow.t list) =
  let eps = Float.min 1.0 (Float.max 0.0 epsilon) in
  let on_ack (s : Tcp_subflow.t) acked =
    if s.Tcp_subflow.f.cwnd < s.Tcp_subflow.f.ssthresh then
      s.Tcp_subflow.f.cwnd <- s.Tcp_subflow.f.cwnd +. float_of_int acked
    else begin
      let total = Float.max 1.0 (total_cwnd (established subflows)) in
      let own = Float.max 1.0 s.Tcp_subflow.f.cwnd in
      let inc = (eps /. own) +. ((1.0 -. eps) /. total) in
      s.Tcp_subflow.f.cwnd <- s.Tcp_subflow.f.cwnd +. (float_of_int acked *. inc)
    end
  in
  List.iter (fun s -> s.Tcp_subflow.cc_on_ack <- on_ack) subflows

(** Install [policy] across [subflows], replacing each one's
    [cc_on_ack]. The coupled policies capture the given list; call again
    with the full list whenever a subflow is added to the connection so
    the newcomer joins the aggregate (reestablishing an existing subflow
    needs nothing: [cc_on_ack] survives {!Tcp_subflow.reestablish}, and
    the [established] filter keeps it out of the aggregates while it is
    down). *)
let install policy (subflows : Tcp_subflow.t list) =
  match policy with
  | Reno -> List.iter (fun s -> s.Tcp_subflow.cc_on_ack <- reno) subflows
  | Lia -> install_lia subflows
  | Olia -> install_olia subflows
  | Coupled -> install_coupled subflows
  | Ecoupled e -> install_ecoupled e subflows
