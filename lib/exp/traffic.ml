(** Open-loop traffic generation for fleet experiments: Poisson
    arrivals at a (possibly time-varying) rate, heavy-tailed
    bounded-Pareto flow sizes, and scripted diurnal rate ramps. Open
    loop means the arrival process never reacts to system state — the
    workload the scheduler-comparison literature assumes (and the one
    that exposes overload behaviour, since concurrency is free to grow
    as arrivals outpace completions).

    Everything draws from explicitly passed {!Mptcp_sim.Rng} streams,
    so a generated arrival sequence is a pure function of (seed, spec)
    and the sweep's serial≡parallel report contract is preserved. *)

open Mptcp_sim

(* ---------- flow-size distributions ---------- *)

type size_dist =
  | Fixed of int
  | Bounded_pareto of { xm : float; alpha : float; cap : float }
      (** Pareto with scale [xm], shape [alpha], truncated at [cap] —
          the standard heavy-tailed flow-size model (most flows are
          mice, most bytes are in elephants), bounded so one draw can't
          swallow a whole campaign. *)

let default_pareto =
  Bounded_pareto { xm = 4096.0; alpha = 1.5; cap = 262144.0 }

(** Parse a flow-size axis value: ["default"] (bounded Pareto 4 KB /
    1.5 / 256 KB), ["fixed:BYTES"], or ["pareto:XM:ALPHA:CAP"]. *)
let parse_size s =
  let num what v =
    match float_of_string_opt v with
    | Some f when f > 0.0 -> Ok f
    | Some _ | None -> Error (Fmt.str "flow-size: %s must be positive: %s" what v)
  in
  match String.split_on_char ':' s with
  | [ "default" ] -> Ok default_pareto
  | [ "fixed"; v ] -> (
      match int_of_string_opt v with
      | Some n when n > 0 -> Ok (Fixed n)
      | Some _ | None -> Error (Fmt.str "flow-size: bad fixed size %s" v))
  | [ "pareto"; xm; alpha; cap ] ->
      Result.bind (num "xm" xm) @@ fun xm ->
      Result.bind (num "alpha" alpha) @@ fun alpha ->
      Result.bind (num "cap" cap) @@ fun cap ->
      if cap < xm then Error (Fmt.str "flow-size: cap %g < xm %g" cap xm)
      else Ok (Bounded_pareto { xm; alpha; cap })
  | _ ->
      Error
        (Fmt.str
           "flow-size: %s (expected default, fixed:BYTES or \
            pareto:XM:ALPHA:CAP)"
           s)

(** Mean of the distribution, for capacity planning:
    [xm * (a/(a-1)) * (1 - r^(a-1)) / (1 - r^a)] with [r = xm/cap]
    (limit [xm * ln(cap/xm) / (1 - r)] at [a = 1]). *)
let mean_size = function
  | Fixed n -> float_of_int n
  | Bounded_pareto { xm; alpha; cap } ->
      let r = xm /. cap in
      if alpha = 1.0 then xm *. log (cap /. xm) /. (1.0 -. r)
      else
        xm
        *. (alpha /. (alpha -. 1.0))
        *. (1.0 -. (r ** (alpha -. 1.0)))
        /. (1.0 -. (r ** alpha))

(** One draw (>= 1 byte). Bounded Pareto by inversion:
    [x = xm / (1 - u (1 - (xm/cap)^alpha))^(1/alpha)]. *)
let draw_size dist rng =
  match dist with
  | Fixed n -> n
  | Bounded_pareto { xm; alpha; cap } ->
      let u = Rng.float rng in
      let x = xm /. ((1.0 -. (u *. (1.0 -. ((xm /. cap) ** alpha)))) ** (1.0 /. alpha)) in
      max 1 (int_of_float (Float.min x cap))

(* ---------- diurnal rate ramps ---------- *)

type ramp = (float * float) list
(** [(time, multiplier)] breakpoints, times strictly increasing. The
    instantaneous rate multiplier is interpolated piecewise-linearly
    and clamped to the first/last breakpoint outside the scripted
    span — a diurnal load curve in a few pairs. Empty = constant 1. *)

(** Parse one ["TIME:MULT"] breakpoint. *)
let parse_ramp_point s =
  match String.split_on_char ':' s with
  | [ t; m ] -> (
      match (float_of_string_opt t, float_of_string_opt m) with
      | Some t, Some m when t >= 0.0 && m >= 0.0 -> Ok (t, m)
      | _ -> Error (Fmt.str "ramp: bad breakpoint %s" s))
  | _ -> Error (Fmt.str "ramp: %s (expected TIME:MULT)" s)

let check_ramp (r : ramp) =
  let rec ok = function
    | (t1, _) :: ((t2, _) :: _ as rest) ->
        if t2 <= t1 then
          Error (Fmt.str "ramp: times must increase (%g after %g)" t2 t1)
        else ok rest
    | _ -> Ok r
  in
  ok r

(** Rate at time [t]: [base] times the interpolated ramp multiplier. *)
let rate_at ~(ramp : ramp) ~base t =
  match ramp with
  | [] -> base
  | (t0, m0) :: _ when t <= t0 -> base *. m0
  | points ->
      let rec interp = function
        | [ (_, m) ] -> m
        | (t1, m1) :: ((t2, m2) :: _ as rest) ->
            if t <= t2 then m1 +. ((m2 -. m1) *. (t -. t1) /. (t2 -. t1))
            else interp rest
        | [] -> 1.0
      in
      base *. interp points

(* ---------- the open-loop drive ---------- *)

(** Schedule a Poisson arrival process on [clock]: inter-arrival gaps
    are exponential with mean [1 / rate now], re-drawn at each arrival
    (a good approximation of an inhomogeneous Poisson process for
    rates that vary slowly against the arrival scale, as diurnal ramps
    do). [arrive] fires once per arrival; arrivals stop after [until].
    A zero rate parks the process and re-probes every 100 ms until the
    ramp brings the rate back. The two event actions are built once per
    drive and {!Eventq.post}ed, so an arrival allocates no closure and
    no event record. *)
let drive ~clock ~rng ~rate ~until arrive =
  let rec next () =
    let now = Eventq.now clock in
    let r = rate now in
    if r > 0.0 then begin
      let at = now +. Rng.exponential rng ~mean:(1.0 /. r) in
      if at <= until then Eventq.post clock ~at fire
    end
    else begin
      let at = now +. 0.1 in
      if at <= until then Eventq.post clock ~at next
    end
  and fire () =
    arrive ();
    next ()
  in
  next ()
