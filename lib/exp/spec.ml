(** Declarative experiment-campaign specifications.

    A campaign is a parameter grid: the cartesian product of scenarios,
    schedulers, engines, loss rates, fault timelines and RNG seeds, plus
    a few scalar knobs (duration, invariant checking). The text format
    is line-oriented — one axis per line — so a whole paper figure's
    data reduces to a few lines (see docs/EXPERIMENTS.md):

    {v
    scenario bulk stream
    scheduler default redundant_if_no_q
    engine interpreter threaded
    loss 0.0 0.02
    seed 1..8
    fault none handover=clitest/handover.fault
    duration 10
    invariants on
    v}

    Expansion order is fixed — scenario, then scheduler, engine, cc,
    topology, loss, fault, seed (seeds innermost) — and [run_id] is the
    index in that order, so a campaign's run list is a pure function of
    its spec and reports are comparable across serial and parallel
    executions. Axes added later (fleet, cc, topology) sit at fixed
    positions with singleton defaults, so specs that do not mention
    them keep the run ids they had before the axes existed. *)

type fault_axis = {
  fault_label : string;  (** "none", or the label before [=] *)
  fault_file : string option;  (** fault-script path; [None] for "none" *)
}

type t = {
  scenarios : string list;
  schedulers : string list;
  engines : string list;
  ccs : string list;  (** congestion-control policy names ({!Mptcp_sim.Congestion.of_string}) *)
  topologies : string list;
      (** "private" (per-connection point-to-point links), or a
          {!Mptcp_sim.Topology} builtin name / file *)
  losses : float list;
  fleets : int list;  (** fleet scale: connections (static scenarios) or
                          link groups (the open-loop [fleet] scenario) *)
  rates : float list;  (** open-loop arrival rate, flows/second *)
  sizes : string list;  (** flow-size distribution, {!Traffic.parse_size} *)
  faults : fault_axis list;
  seeds : int list;
  ramp : (float * float) list;  (** scalar: diurnal rate ramp breakpoints *)
  duration : float;
  invariants : bool;
}

let default =
  {
    scenarios = [ "bulk" ];
    schedulers = [ "default" ];
    engines = [ "interpreter" ];
    ccs = [ "lia" ];
    topologies = [ "private" ];
    losses = [ 0.0 ];
    fleets = [ 1 ];
    rates = [ 0.0 ];
    sizes = [ "default" ];
    faults = [ { fault_label = "none"; fault_file = None } ];
    seeds = [ 42 ];
    ramp = [];
    duration = 10.0;
    invariants = false;
  }

let known_scenarios =
  [ "bulk"; "stream"; "short-flows"; "http2"; "dash"; "fleet"; "fairness" ]

(* ---------- parsing ---------- *)

let err line msg = Error (Fmt.str "spec:%d: %s" line msg)

let parse_int line s =
  match int_of_string_opt s with
  | Some i -> Ok i
  | None -> err line (Fmt.str "not an integer: %s" s)

let parse_float line s =
  match float_of_string_opt s with
  | Some f -> Ok f
  | None -> err line (Fmt.str "not a number: %s" s)

(* "3" or "1..8" (inclusive) *)
let parse_seed line s =
  match String.index_opt s '.' with
  | Some i
    when i + 1 < String.length s
         && s.[i + 1] = '.'
         && i > 0
         && i + 2 < String.length s -> (
      let lo = String.sub s 0 i
      and hi = String.sub s (i + 2) (String.length s - i - 2) in
      match (int_of_string_opt lo, int_of_string_opt hi) with
      | Some lo, Some hi when lo <= hi -> Ok (List.init (hi - lo + 1) (( + ) lo))
      | Some lo, Some hi ->
          err line (Fmt.str "empty seed range %d..%d" lo hi)
      | _ -> err line (Fmt.str "malformed seed range: %s" s))
  | _ -> Result.map (fun i -> [ i ]) (parse_int line s)

let parse_fault line s =
  if s = "none" then Ok { fault_label = "none"; fault_file = None }
  else
    match String.index_opt s '=' with
    | Some i when i > 0 && i + 1 < String.length s ->
        Ok
          {
            fault_label = String.sub s 0 i;
            fault_file = Some (String.sub s (i + 1) (String.length s - i - 1));
          }
    | _ ->
        err line
          (Fmt.str "malformed fault axis %s (expected none or LABEL=FILE)" s)

let rec map_m f = function
  | [] -> Ok []
  | x :: rest ->
      Result.bind (f x) (fun y ->
          Result.map (fun ys -> y :: ys) (map_m f rest))

let parse text =
  let lines = String.split_on_char '\n' text in
  let rec go n seen spec = function
    | [] -> Ok spec
    | line :: rest -> (
        let line =
          match String.index_opt line '#' with
          | Some i -> String.sub line 0 i
          | None -> line
        in
        match
          String.split_on_char ' ' (String.trim line)
          |> List.concat_map (String.split_on_char '\t')
          |> List.filter (fun w -> w <> "")
        with
        | [] -> go (n + 1) seen spec rest
        | key :: args -> (
            if List.mem key seen then err n (Fmt.str "duplicate key %s" key)
            else
              let seen = key :: seen in
              let continue spec = go (n + 1) seen spec rest in
              let axis parse_one set =
                if args = [] then err n (Fmt.str "%s: no values" key)
                else
                  Result.bind (map_m (parse_one n) args) (fun vs ->
                      continue (set vs))
              in
              match key with
              | "scenario" ->
                  axis
                    (fun n s ->
                      if List.mem s known_scenarios then Ok s
                      else
                        err n
                          (Fmt.str "unknown scenario %s (one of: %s)" s
                             (String.concat ", " known_scenarios)))
                    (fun scenarios -> { spec with scenarios })
              | "scheduler" ->
                  axis (fun _ s -> Ok s) (fun schedulers -> { spec with schedulers })
              | "engine" ->
                  axis (fun _ s -> Ok s) (fun engines -> { spec with engines })
              | "cc" ->
                  axis
                    (fun n s ->
                      match Mptcp_sim.Congestion.of_string s with
                      | Ok _ -> Ok s
                      | Error msg -> err n msg)
                    (fun ccs -> { spec with ccs })
              | "topology" ->
                  (* resolved (builtins and files alike) in
                     [Sweep.prepare]; here only the shape is checked *)
                  axis
                    (fun n s ->
                      if s <> "" then Ok s else err n "empty topology name")
                    (fun topologies -> { spec with topologies })
              | "loss" ->
                  axis parse_float (fun losses -> { spec with losses })
              | "fleet" ->
                  axis
                    (fun n s ->
                      Result.bind (parse_int n s) (fun i ->
                          if i >= 1 then Ok i
                          else err n (Fmt.str "fleet must be >= 1: %d" i)))
                    (fun fleets -> { spec with fleets })
              | "arrival-rate" ->
                  axis
                    (fun n s ->
                      Result.bind (parse_float n s) (fun r ->
                          if r >= 0.0 then Ok r
                          else err n (Fmt.str "arrival-rate must be >= 0: %g" r)))
                    (fun rates -> { spec with rates })
              | "flow-size" ->
                  axis
                    (fun n s ->
                      match Traffic.parse_size s with
                      | Ok _ -> Ok s
                      | Error msg -> err n msg)
                    (fun sizes -> { spec with sizes })
              | "ramp" ->
                  if args = [] then err n "ramp: no values"
                  else
                    Result.bind
                      (map_m
                         (fun s ->
                           Result.map_error (Fmt.str "spec:%d: %s" n)
                             (Traffic.parse_ramp_point s))
                         args)
                      (fun points ->
                        match Traffic.check_ramp points with
                        | Ok ramp -> continue { spec with ramp }
                        | Error msg -> err n msg)
              | "fault" ->
                  axis parse_fault (fun faults -> { spec with faults })
              | "seed" ->
                  if args = [] then err n "seed: no values"
                  else
                    Result.bind (map_m (parse_seed n) args) (fun vss ->
                        continue { spec with seeds = List.concat vss })
              | "duration" -> (
                  match args with
                  | [ d ] ->
                      Result.bind (parse_float n d) (fun duration ->
                          if duration <= 0.0 then
                            err n "duration must be positive"
                          else continue { spec with duration })
                  | _ -> err n "duration takes exactly one value")
              | "invariants" -> (
                  match args with
                  | [ "on" ] -> continue { spec with invariants = true }
                  | [ "off" ] -> continue { spec with invariants = false }
                  | _ -> err n "invariants takes on or off")
              | _ -> err n (Fmt.str "unknown key %s" key)))
  in
  go 1 [] default lines

let load file =
  match In_channel.with_open_text file In_channel.input_all with
  | text -> parse text
  | exception Sys_error msg -> Error msg

(* ---------- grid expansion ---------- *)

type run_params = {
  run_id : int;  (** index in expansion order *)
  scenario : string;
  scheduler : string;
  engine : string;
  cc : string;
  topology : string;
  loss : float;
  fleet : int;
  rate : float;
  size : string;
  fault : fault_axis;
  seed : int;
}

(** The campaign's run list: the cartesian product in the fixed
    expansion order (scenario, scheduler, engine, cc, topology, loss,
    fleet, rate, size, fault, seed — seeds innermost), [run_id]
    consecutive from 0. A pure function of the spec: serial and
    parallel executions enumerate identical runs. The fleet axes sit
    between loss and fault, and cc/topology between engine and loss, so
    specs that leave them at their singleton defaults keep the run ids
    they had before the axes existed. *)
let runs spec =
  let acc = ref [] and id = ref 0 in
  List.iter
    (fun scenario ->
      List.iter
        (fun scheduler ->
          List.iter
            (fun engine ->
              List.iter
                (fun cc ->
                  List.iter
                    (fun topology ->
                      List.iter
                        (fun loss ->
                          List.iter
                            (fun fleet ->
                              List.iter
                                (fun rate ->
                                  List.iter
                                    (fun size ->
                                      List.iter
                                        (fun fault ->
                                          List.iter
                                            (fun seed ->
                                              acc :=
                                                {
                                                  run_id = !id;
                                                  scenario;
                                                  scheduler;
                                                  engine;
                                                  cc;
                                                  topology;
                                                  loss;
                                                  fleet;
                                                  rate;
                                                  size;
                                                  fault;
                                                  seed;
                                                }
                                                :: !acc;
                                              incr id)
                                            spec.seeds)
                                        spec.faults)
                                    spec.sizes)
                                spec.rates)
                            spec.fleets)
                        spec.losses)
                    spec.topologies)
                spec.ccs)
            spec.engines)
        spec.schedulers)
    spec.scenarios;
  List.rev !acc

let run_count spec =
  List.length spec.scenarios * List.length spec.schedulers
  * List.length spec.engines * List.length spec.ccs
  * List.length spec.topologies * List.length spec.losses
  * List.length spec.fleets * List.length spec.rates
  * List.length spec.sizes * List.length spec.faults
  * List.length spec.seeds

(* explicit spaces, not break hints: the text format is line-oriented,
   so the printer must never wrap a long axis onto a new line *)
let pp ppf spec =
  let line key vals = Fmt.pf ppf "%s %s@." key (String.concat " " vals) in
  line "scenario" spec.scenarios;
  line "scheduler" spec.schedulers;
  line "engine" spec.engines;
  line "cc" spec.ccs;
  line "topology" spec.topologies;
  line "loss" (List.map (Fmt.str "%g") spec.losses);
  line "fleet" (List.map string_of_int spec.fleets);
  line "arrival-rate" (List.map (Fmt.str "%g") spec.rates);
  line "flow-size" spec.sizes;
  if spec.ramp <> [] then
    line "ramp" (List.map (fun (t, m) -> Fmt.str "%g:%g" t m) spec.ramp);
  line "fault"
    (List.map
       (fun f ->
         match f.fault_file with
         | None -> f.fault_label
         | Some file -> f.fault_label ^ "=" ^ file)
       spec.faults);
  line "seed" (List.map string_of_int spec.seeds);
  line "duration" [ Fmt.str "%g" spec.duration ];
  line "invariants" [ (if spec.invariants then "on" else "off") ]
