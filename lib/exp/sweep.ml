(** Parallel campaign execution on OCaml 5 domains.

    A campaign (a {!Spec.t} grid) is executed across a fixed pool of
    domains pulling run indices from one atomic counter — no work
    stealing, no shared mutable simulation state. Every run owns its
    entire world: a fresh {!Connection} (event queue, links, RNG seeded
    from the run's own seed) and a {e private} scheduler instance
    ({!Progmp_runtime.Scheduler.instantiate_private}): the engine's
    compiled code is shared read-only, and each run owns its instance's
    scratch, so no scratch is ever entered from two domains. All
    cross-domain communication is the counter, the per-index result
    slots (published by [Domain.join]), and read-only registries
    populated before any domain spawns.

    Determinism contract: a run's result is a pure function of its
    {!Spec.run_params}, so reports are structurally identical whatever
    the job count — [--jobs 1] and [--jobs 8] produce equal reports
    (enforced by [test/test_exp.ml]). *)

open Mptcp_sim
module R = Progmp_runtime

(* ---------- results ---------- *)

type run_result = Scenarios.run_result = {
  r_params : Spec.run_params;
  r_sim_time : float;
  r_delivered : int;
  r_goodput_bps : float;
  r_completion : float option;
  r_executions : int;
  r_pushes : int;
  r_subflow_bytes : (string * int) list;
  r_inv_total : int;
  r_inv_messages : string list;
  r_extra : (string * float) list;
}

type group = {
  g_scenario : string;
  g_scheduler : string;
  g_engine : string;
  g_cc : string;
  g_topology : string;
  g_loss : float;
  g_fleet : int;
  g_rate : float;
  g_size : string;
  g_fault : string;
  g_runs : int;  (** seeds aggregated *)
  g_completed : int;  (** runs with a completion time *)
  g_goodput_mean : float;
  g_goodput_min : float;
  g_goodput_max : float;
  g_completion_mean : float;  (** over completed runs; 0 when none *)
  g_inv_total : int;
}

type report = {
  spec : Spec.t;
  jobs : int;  (** how this report was produced; not part of equality *)
  runs : run_result list;  (** ordered by [run_id] *)
  groups : group list;  (** aggregated over seeds, expansion order *)
}

(** Structural equality modulo how the campaign was executed (job
    count): the determinism contract that serial and parallel sweeps
    must produce interchangeable reports. *)
let equal_report a b =
  a.spec = b.spec && a.runs = b.runs && a.groups = b.groups

(* ---------- preparation (main domain only) ---------- *)

type ctx = {
  schedulers : (string, R.Scheduler.t) Hashtbl.t;
  fault_scripts : (string, Faults.script) Hashtbl.t;
  topologies : (string, Topology.t) Hashtbl.t;
      (** resolved topology axis values; "private" has no entry *)
  duration : float;
  invariants : bool;
  ramp : Traffic.ramp;
}

let rec first_error = function
  | [] -> Ok ()
  | Ok () :: rest -> first_error rest
  | (Error _ as e) :: _ -> e

(** Resolve and validate everything shared, on the calling domain,
    before any worker exists: load the zoo (which registers the
    "default" entry a socket created without a scheduler instantiates),
    resolve scheduler and engine names, parse fault scripts, and
    instantiate each (scheduler, engine) pair once, so every pair is
    compiled here and workers only instantiate from the cached code.
    Workers afterwards only read these registries. *)
let prepare (spec : Spec.t) =
  Progmp_compiler.Compile.register_engines ();
  ignore (Schedulers.Specs.load_all ());
  let schedulers = Hashtbl.create 8 and fault_scripts = Hashtbl.create 8 in
  let resolve_scheduler name =
    match R.Scheduler.find name with
    | Some s ->
        Hashtbl.replace schedulers name s;
        Ok ()
    | None -> Error (Fmt.str "unknown scheduler %s" name)
  in
  let known_engines = R.Engine.names () in
  let resolve_engine name =
    if List.mem name known_engines then Ok ()
    else
      Error
        (Fmt.str "unknown engine %s (available: %s)" name
           (String.concat ", " known_engines))
  in
  let topologies = Hashtbl.create 4 in
  let resolve_cc name =
    Result.map (fun _ -> ()) (Congestion.of_string name)
  in
  let resolve_topology name =
    if name = "private" then Ok ()
    else
      match Topology.resolve name with
      | Ok t ->
          Hashtbl.replace topologies name t;
          Ok ()
      | Error msg -> Error msg
  in
  (* the topology axis only has meaning for the fairness scenario:
     every other scenario builds its own private point-to-point links,
     so a non-default topology there would be silently ignored *)
  let scenario_topologies () =
    let fairness = List.mem "fairness" spec.Spec.scenarios in
    let others =
      List.exists (fun s -> s <> "fairness") spec.Spec.scenarios
    in
    let private_ = List.mem "private" spec.Spec.topologies in
    let shared = List.exists (fun t -> t <> "private") spec.Spec.topologies in
    if fairness && private_ then
      Error
        "scenario fairness needs a shared-link topology axis (e.g. \
         'topology dumbbell'); 'private' has no shared bottleneck"
    else if others && shared then
      Error
        (Fmt.str
           "scenario %s runs on private per-connection links; the topology \
            axis applies to the fairness scenario only"
           (List.find (fun s -> s <> "fairness") spec.Spec.scenarios))
    else Ok ()
  in
  let resolve_fault (f : Spec.fault_axis) =
    match f.Spec.fault_file with
    | None ->
        Hashtbl.replace fault_scripts f.Spec.fault_label [];
        Ok ()
    | Some file -> (
        match Faults.load file with
        | Ok script ->
            Hashtbl.replace fault_scripts f.Spec.fault_label script;
            Ok ()
        | Error msg -> Error msg)
  in
  Result.bind (first_error (List.map resolve_scheduler spec.Spec.schedulers))
  @@ fun () ->
  Result.bind (first_error (List.map resolve_engine spec.Spec.engines))
  @@ fun () ->
  Result.bind (first_error (List.map resolve_cc spec.Spec.ccs))
  @@ fun () ->
  Result.bind (first_error (List.map resolve_topology spec.Spec.topologies))
  @@ fun () ->
  Result.bind (scenario_topologies ())
  @@ fun () ->
  Result.bind (first_error (List.map resolve_fault spec.Spec.faults))
  @@ fun () ->
  Hashtbl.iter
    (fun _ sched ->
      List.iter
        (fun engine ->
          ignore (R.Scheduler.instantiate_private sched ~engine))
        spec.Spec.engines)
    schedulers;
  Ok
    {
      schedulers;
      fault_scripts;
      topologies;
      duration = spec.Spec.duration;
      invariants = spec.Spec.invariants;
      ramp = spec.Spec.ramp;
    }

let fleet_group_paths = Scenarios.fleet_group_paths
let fleet_thin_paths = Scenarios.fleet_thin_paths

(* ---------- one run (worker side, fully run-local) ---------- *)

(* A run's world comes from the scenario registry; the sweep only adds
   its hooks: a private scheduler instance per connection, and the
   run's fault script and invariant checkers. *)
let run_one ctx (p : Spec.run_params) =
  let sched = Hashtbl.find ctx.schedulers p.Spec.scheduler in
  let script = Hashtbl.find ctx.fault_scripts p.Spec.fault.Spec.fault_label in
  let checkers = ref [] in
  let instrument conn =
    Faults.apply conn script;
    if ctx.invariants then checkers := Invariants.attach conn :: !checkers
  in
  let o =
    Scenarios.run
      {
        Scenarios.duration = ctx.duration;
        scheduler = sched;
        topology = Hashtbl.find_opt ctx.topologies p.Spec.topology;
        ramp = ctx.ramp;
        instrument;
      }
      p
  in
  {
    o.Scenarios.result with
    r_inv_total = List.fold_left (fun n c -> n + Invariants.total c) 0 !checkers;
    r_inv_messages = List.concat_map Invariants.violations !checkers;
  }

(* ---------- aggregation ---------- *)

let aggregate runs =
  let key (r : run_result) =
    let p = r.r_params in
    ( p.Spec.scenario,
      p.Spec.scheduler,
      (p.Spec.engine, p.Spec.cc, p.Spec.topology),
      p.Spec.loss,
      (p.Spec.fleet, p.Spec.rate, p.Spec.size),
      p.Spec.fault.Spec.fault_label )
  in
  let order = ref [] and tbl = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let k = key r in
      match Hashtbl.find_opt tbl k with
      | Some rs -> rs := r :: !rs
      | None ->
          Hashtbl.replace tbl k (ref [ r ]);
          order := k :: !order)
    runs;
  List.rev_map
    (fun ((scenario, scheduler, (engine, cc, topology), loss,
           (fleet, rate, size), fault) as k) ->
      let rs = List.rev !(Hashtbl.find tbl k) in
      let n = List.length rs in
      let goodputs = List.map (fun r -> r.r_goodput_bps) rs in
      let completions = List.filter_map (fun r -> r.r_completion) rs in
      let sum = List.fold_left ( +. ) 0.0 in
      {
        g_scenario = scenario;
        g_scheduler = scheduler;
        g_engine = engine;
        g_cc = cc;
        g_topology = topology;
        g_loss = loss;
        g_fleet = fleet;
        g_rate = rate;
        g_size = size;
        g_fault = fault;
        g_runs = n;
        g_completed = List.length completions;
        g_goodput_mean = (if n = 0 then 0.0 else sum goodputs /. float_of_int n);
        g_goodput_min = List.fold_left Float.min infinity goodputs;
        g_goodput_max = List.fold_left Float.max 0.0 goodputs;
        g_completion_mean =
          (match completions with
          | [] -> 0.0
          | l -> sum l /. float_of_int (List.length l));
        g_inv_total = List.fold_left (fun acc r -> acc + r.r_inv_total) 0 rs;
      })
    !order

(* ---------- the domain pool ---------- *)

let default_jobs () = max 1 (Domain.recommended_domain_count ())

(** Execute the campaign. [jobs] domains (default
    {!Domain.recommended_domain_count}) pull run indices from an atomic
    counter; the calling domain is one of them, so [jobs = 1] runs
    everything inline with no spawn at all. A request above the
    recommended domain count is clamped to it (with a note on stderr):
    OCaml 5 domains are heavyweight and oversubscription only adds
    contention. [force_jobs] keeps the requested count verbatim — the
    escape hatch oversubscription benchmarks need. Results land in
    per-index slots and are assembled in [run_id] order, making the
    report independent of scheduling interleavings by construction. *)
let execute ?(force_jobs = false) ?jobs (spec : Spec.t) =
  match prepare spec with
  | Error _ as e -> e
  | Ok ctx -> (
      let jobs =
        match jobs with
        | None -> default_jobs ()
        | Some j when force_jobs -> max 1 j
        | Some j ->
            let cap = default_jobs () in
            if j > cap then
              Fmt.epr
                "sweep: clamping --jobs %d to %d (recommended domain \
                 count; pass --jobs-force to oversubscribe)@."
                j cap;
            max 1 (min j cap)
      in
      let runs = Array.of_list (Spec.runs spec) in
      let results = Array.make (Array.length runs) None in
      let next = Atomic.make 0 in
      let worker () =
        let rec loop () =
          let i = Atomic.fetch_and_add next 1 in
          if i < Array.length runs then begin
            (results.(i) <-
               (match run_one ctx runs.(i) with
               | r -> Some (Ok r)
               | exception e ->
                   Some
                     (Error
                        (Fmt.str "run %d (%s/%s/%s seed %d): %s"
                           runs.(i).Spec.run_id runs.(i).Spec.scenario
                           runs.(i).Spec.scheduler runs.(i).Spec.engine
                           runs.(i).Spec.seed (Printexc.to_string e)))));
            loop ()
          end
        in
        loop ()
      in
      let spawned =
        List.init
          (min (jobs - 1) (max 0 (Array.length runs - 1)))
          (fun _ -> Domain.spawn worker)
      in
      worker ();
      List.iter Domain.join spawned;
      let rec collect i acc =
        if i < 0 then Ok { spec; jobs; runs = acc; groups = [] }
        else
          match results.(i) with
          | Some (Ok r) -> collect (i - 1) (r :: acc)
          | Some (Error _ as e) -> e
          | None -> Error (Fmt.str "run %d produced no result" i)
      in
      match collect (Array.length runs - 1) [] with
      | Error _ as e -> e
      | Ok report -> Ok { report with groups = aggregate report.runs })

(* ---------- emitters ---------- *)

let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let assoc_cell fmt l =
  String.concat ";" (List.map (fun (k, v) -> Fmt.str "%s=%s" k (fmt v)) l)

let to_csv report =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    "run_id,scenario,scheduler,engine,loss,fault,seed,fleet,arrival_rate,\
     flow_size,cc,topology,sim_time_s,delivered_bytes,goodput_bps,\
     completion_s,executions,pushes,invariant_violations,subflow_bytes,\
     extra\n";
  List.iter
    (fun r ->
      let p = r.r_params in
      Buffer.add_string b
        (Fmt.str
           "%d,%s,%s,%s,%g,%s,%d,%d,%g,%s,%s,%s,%.6f,%d,%.1f,%s,%d,%d,%d,%s,%s\n"
           p.Spec.run_id p.Spec.scenario p.Spec.scheduler p.Spec.engine
           p.Spec.loss p.Spec.fault.Spec.fault_label p.Spec.seed p.Spec.fleet
           p.Spec.rate
           (csv_escape p.Spec.size)
           (csv_escape p.Spec.cc)
           (csv_escape p.Spec.topology)
           r.r_sim_time r.r_delivered r.r_goodput_bps
           (match r.r_completion with
           | Some t -> Fmt.str "%.6f" t
           | None -> "")
           r.r_executions r.r_pushes r.r_inv_total
           (csv_escape (assoc_cell string_of_int r.r_subflow_bytes))
           (csv_escape (assoc_cell (Fmt.str "%.3f") r.r_extra))))
    report.runs;
  Buffer.contents b

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 32 -> Buffer.add_string b (Fmt.str "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* JSON has no infinity or NaN: a non-finite measurement (a [dash] run
   whose chunk never arrived has an infinite worst lateness) is
   written as [null]. *)
let json_float fmt x = if Float.is_finite x then Fmt.str fmt x else "null"

let to_json report =
  let b = Buffer.create 8192 in
  let assoc_json fmt l =
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Fmt.str "%s:%s" (json_string k) (fmt v)) l)
    ^ "}"
  in
  Buffer.add_string b
    (Fmt.str "{\"jobs\":%d,\"run_count\":%d,\"runs\":[" report.jobs
       (List.length report.runs));
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char b ',';
      let p = r.r_params in
      Buffer.add_string b
        (Fmt.str
           "{\"run_id\":%d,\"scenario\":%s,\"scheduler\":%s,\"engine\":%s,\
            \"loss\":%s,\"fault\":%s,\"seed\":%d,\"fleet\":%d,\
            \"arrival_rate\":%s,\"flow_size\":%s,\"cc\":%s,\
            \"topology\":%s,\"sim_time_s\":%s,\
            \"delivered_bytes\":%d,\"goodput_bps\":%s,\"completion_s\":%s,\
            \"executions\":%d,\"pushes\":%d,\"invariant_violations\":%d,\
            \"subflow_bytes\":%s,\"extra\":%s}"
           p.Spec.run_id (json_string p.Spec.scenario)
           (json_string p.Spec.scheduler) (json_string p.Spec.engine)
           (json_float "%g" p.Spec.loss)
           (json_string p.Spec.fault.Spec.fault_label)
           p.Spec.seed p.Spec.fleet
           (json_float "%g" p.Spec.rate)
           (json_string p.Spec.size)
           (json_string p.Spec.cc)
           (json_string p.Spec.topology)
           (json_float "%.6f" r.r_sim_time)
           r.r_delivered
           (json_float "%.1f" r.r_goodput_bps)
           (match r.r_completion with
           | Some t -> json_float "%.6f" t
           | None -> "null")
           r.r_executions r.r_pushes r.r_inv_total
           (assoc_json string_of_int r.r_subflow_bytes)
           (assoc_json (json_float "%.3f") r.r_extra)))
    report.runs;
  Buffer.add_string b "],\"groups\":[";
  List.iteri
    (fun i g ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Fmt.str
           "{\"scenario\":%s,\"scheduler\":%s,\"engine\":%s,\"cc\":%s,\
            \"topology\":%s,\"loss\":%s,\
            \"fleet\":%d,\"arrival_rate\":%s,\"flow_size\":%s,\
            \"fault\":%s,\"runs\":%d,\"completed\":%d,\
            \"goodput_mean_bps\":%s,\"goodput_min_bps\":%s,\
            \"goodput_max_bps\":%s,\"completion_mean_s\":%s,\
            \"invariant_violations\":%d}"
           (json_string g.g_scenario) (json_string g.g_scheduler)
           (json_string g.g_engine) (json_string g.g_cc)
           (json_string g.g_topology)
           (json_float "%g" g.g_loss)
           g.g_fleet
           (json_float "%g" g.g_rate)
           (json_string g.g_size)
           (json_string g.g_fault) g.g_runs g.g_completed
           (json_float "%.1f" g.g_goodput_mean)
           (json_float "%.1f" g.g_goodput_min)
           (json_float "%.1f" g.g_goodput_max)
           (json_float "%.6f" g.g_completion_mean)
           g.g_inv_total))
    report.groups;
  Buffer.add_string b "]}";
  Buffer.contents b

(** Deterministic human-readable summary: one line per aggregate group
    (means over seeds), independent of execution order and job count. *)
let pp_report ppf report =
  Fmt.pf ppf "%d runs (%d groups x %d seeds)@." (List.length report.runs)
    (List.length report.groups)
    (List.length report.spec.Spec.seeds);
  (* only widen the group lines when a fleet axis was actually swept, so
     pre-fleet campaign transcripts stay byte-identical *)
  let fleet_axes =
    report.spec.Spec.fleets <> [ 1 ]
    || report.spec.Spec.rates <> [ 0.0 ]
    || report.spec.Spec.sizes <> [ "default" ]
  in
  (* same rule for the cc/topology axes (added later): default-only
     campaigns keep their historical transcript byte for byte *)
  let cc_axes =
    report.spec.Spec.ccs <> [ "lia" ]
    || report.spec.Spec.topologies <> [ "private" ]
  in
  List.iter
    (fun g ->
      Fmt.pf ppf
        "%-12s %-22s %-11s loss %-5g fault %-10s%s%s : goodput %8.0f bps \
         mean (%d/%d complete%s)@."
        g.g_scenario g.g_scheduler g.g_engine g.g_loss g.g_fault
        (if fleet_axes then
           Fmt.str " fleet %-4d rate %-6g size %-14s" g.g_fleet g.g_rate
             g.g_size
         else "")
        (if cc_axes then
           Fmt.str " cc %-10s topo %-12s" g.g_cc g.g_topology
         else "")
        g.g_goodput_mean g.g_completed g.g_runs
        (if g.g_inv_total > 0 then
           Fmt.str ", %d INVARIANT VIOLATIONS" g.g_inv_total
         else ""))
    report.groups
