(** Tests for the experiment-sweep subsystem: campaign-spec parsing,
    grid expansion order, RNG stream independence, the serial-vs-parallel
    determinism contract ([Sweep.execute ~jobs:1] equals [~jobs:4]),
    a fault-axis campaign with invariant checking on a domain pool, and
    the scenario registry both drivers share. *)

open Mptcp_exp
open Helpers

let spec_ok text =
  match Spec.parse text with
  | Ok s -> s
  | Error msg -> Alcotest.failf "unexpected parse error: %s" msg

let spec_err text =
  match Spec.parse text with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error msg -> msg

let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let spec_suite =
  [
    ( "exp spec",
      [
        tc "defaults" (fun () ->
            let s = spec_ok "" in
            Alcotest.(check (list string)) "scenario" [ "bulk" ] s.Spec.scenarios;
            Alcotest.(check (list int)) "seed" [ 42 ] s.Spec.seeds;
            Alcotest.(check bool) "invariants" false s.Spec.invariants);
        tc "full campaign with ranges, comments and faults" (fun () ->
            let s =
              spec_ok
                "# figure 10b\n\
                 scenario bulk stream\n\
                 scheduler default redundant_if_no_q\n\
                 engine interpreter threaded\n\
                 loss 0.0 0.02   # two loss points\n\
                 seed 1..3 7\n\
                 fault none outage=outage.fs\n\
                 duration 2.5\n\
                 invariants on\n"
            in
            Alcotest.(check (list string))
              "scenarios" [ "bulk"; "stream" ] s.Spec.scenarios;
            Alcotest.(check (list string))
              "schedulers"
              [ "default"; "redundant_if_no_q" ]
              s.Spec.schedulers;
            Alcotest.(check (list int)) "seeds" [ 1; 2; 3; 7 ] s.Spec.seeds;
            Alcotest.(check (list string))
              "fault labels" [ "none"; "outage" ]
              (List.map (fun f -> f.Spec.fault_label) s.Spec.faults);
            Alcotest.(check (option string))
              "fault file" (Some "outage.fs")
              (List.nth s.Spec.faults 1).Spec.fault_file;
            Alcotest.(check (float 1e-9)) "duration" 2.5 s.Spec.duration;
            Alcotest.(check bool) "invariants" true s.Spec.invariants);
        tc "errors carry the line number" (fun () ->
            Alcotest.(check bool)
              "unknown key at line 2" true
              (contains ~sub:"spec:2" (spec_err "seed 1\nbogus x\n"));
            Alcotest.(check bool)
              "unknown scenario" true
              (contains ~sub:"unknown scenario mars" (spec_err "scenario mars"));
            Alcotest.(check bool)
              "duplicate key" true
              (contains ~sub:"duplicate key seed" (spec_err "seed 1\nseed 2"));
            Alcotest.(check bool)
              "empty range" true
              (contains ~sub:"empty seed range" (spec_err "seed 5..2"));
            Alcotest.(check bool)
              "malformed fault" true
              (contains ~sub:"malformed fault" (spec_err "fault oops"));
            Alcotest.(check bool)
              "bad duration" true
              (contains ~sub:"positive" (spec_err "duration -1")));
        tc "pp round-trips" (fun () ->
            let s =
              spec_ok
                "scenario dash\nscheduler default\nloss 0.01\nseed 1..4\n\
                 fault none blip=f.fs\nduration 3\ninvariants on\n"
            in
            let s' = spec_ok (Fmt.str "%a" Spec.pp s) in
            Alcotest.(check bool) "equal" true (s = s'));
        tc "fleet axes parse" (fun () ->
            let s =
              spec_ok
                "scenario fleet\n\
                 fleet 2 8\n\
                 arrival-rate 50 200\n\
                 flow-size default fixed:65536 pareto:4096:1.5:262144\n\
                 ramp 0:1 30:2 60:0.5\n"
            in
            Alcotest.(check (list int)) "fleets" [ 2; 8 ] s.Spec.fleets;
            Alcotest.(check (list (float 1e-9)))
              "rates" [ 50.0; 200.0 ] s.Spec.rates;
            Alcotest.(check (list string))
              "sizes"
              [ "default"; "fixed:65536"; "pareto:4096:1.5:262144" ]
              s.Spec.sizes;
            Alcotest.(check int) "ramp points" 3 (List.length s.Spec.ramp);
            Alcotest.(check (float 1e-9))
              "ramp mult" 2.0
              (snd (List.nth s.Spec.ramp 1)));
        tc "fleet axes are validated at parse time" (fun () ->
            Alcotest.(check bool)
              "fleet 0" true
              (contains ~sub:"fleet must be >= 1" (spec_err "fleet 0"));
            Alcotest.(check bool)
              "negative rate" true
              (contains ~sub:"arrival-rate must be >= 0"
                 (spec_err "arrival-rate -5"));
            Alcotest.(check bool)
              "bogus distribution" true
              (contains ~sub:"flow-size" (spec_err "flow-size zipf:2"));
            Alcotest.(check bool)
              "pareto cap below xm" true
              (contains ~sub:"cap" (spec_err "flow-size pareto:4096:1.5:100"));
            Alcotest.(check bool)
              "ramp point shape" true
              (contains ~sub:"TIME:MULT" (spec_err "ramp 5"));
            Alcotest.(check bool)
              "ramp times must increase" true
              (contains ~sub:"times must increase" (spec_err "ramp 0:1 0:2")));
        tc "pp round-trips the fleet axes" (fun () ->
            let s =
              spec_ok
                "scenario fleet\nscheduler default\nfleet 4\n\
                 arrival-rate 100 400\nflow-size fixed:4096\n\
                 ramp 0:1 10:3\nseed 1..2\nduration 5\n"
            in
            let s' = spec_ok (Fmt.str "%a" Spec.pp s) in
            Alcotest.(check bool) "equal" true (s = s'));
        tc "singleton fleet axes preserve pre-fleet run ids" (fun () ->
            (* the axes sit between loss and fault in the expansion
               order; left at their defaults they must not perturb the
               run_id assignment of older campaigns *)
            let s = spec_ok "scheduler a b\nloss 0.0 0.1\nseed 1..3\n" in
            let runs = Spec.runs s in
            Alcotest.(check int) "count" 12 (List.length runs);
            List.iteri
              (fun i r ->
                Alcotest.(check int) "run_id" i r.Spec.run_id;
                Alcotest.(check int) "fleet default" 1 r.Spec.fleet;
                Alcotest.(check (float 1e-9)) "rate default" 0.0 r.Spec.rate;
                Alcotest.(check string) "size default" "default" r.Spec.size)
              runs;
            (* with explicit axes: size innermost of the three, then
               rate, then fleet — between loss and fault *)
            let s =
              spec_ok
                "fleet 1 2\narrival-rate 10 20\nflow-size default \
                 fixed:1000\nseed 1\n"
            in
            let runs = Spec.runs s in
            Alcotest.(check int) "count" 8 (List.length runs);
            let r1 = List.nth runs 1 and r2 = List.nth runs 2 in
            Alcotest.(check string) "size varies first" "fixed:1000"
              r1.Spec.size;
            Alcotest.(check (float 1e-9)) "then rate" 20.0 r2.Spec.rate;
            Alcotest.(check int) "fleet last" 2 (List.nth runs 4).Spec.fleet);
        tc "grid expansion: seeds innermost, run_id consecutive" (fun () ->
            let s =
              spec_ok "scheduler a b\nloss 0.0 0.1\nseed 1..3\n"
            in
            let runs = Spec.runs s in
            Alcotest.(check int) "count" 12 (List.length runs);
            Alcotest.(check int) "run_count" 12 (Spec.run_count s);
            List.iteri
              (fun i r -> Alcotest.(check int) "run_id" i r.Spec.run_id)
              runs;
            let r1 = List.nth runs 1 and r3 = List.nth runs 3 in
            Alcotest.(check int) "seed varies first" 2 r1.Spec.seed;
            Alcotest.(check (float 1e-9)) "then loss" 0.1 r3.Spec.loss;
            Alcotest.(check string) "scheduler last"
              "b" (List.nth runs 6).Spec.scheduler);
      ] );
  ]

let rng_suite =
  [
    ( "exp rng streams",
      [
        tc "stream is a pure function of (seed, i)" (fun () ->
            let draws r = List.init 5 (fun _ -> Mptcp_sim.Rng.float r) in
            Alcotest.(check (list (float 0.0)))
              "same stream twice"
              (draws (Mptcp_sim.Rng.stream ~seed:1 2))
              (draws (Mptcp_sim.Rng.stream ~seed:1 2));
            Alcotest.(check bool)
              "distinct indices differ" true
              (draws (Mptcp_sim.Rng.stream ~seed:1 2)
              <> draws (Mptcp_sim.Rng.stream ~seed:1 3));
            Alcotest.(check bool)
              "distinct seeds differ" true
              (draws (Mptcp_sim.Rng.stream ~seed:1 2)
              <> draws (Mptcp_sim.Rng.stream ~seed:4 2)));
        tc "stream_seed is pure and non-negative" (fun () ->
            Alcotest.(check int)
              "pure"
              (Mptcp_sim.Rng.stream_seed ~seed:9 4)
              (Mptcp_sim.Rng.stream_seed ~seed:9 4);
            for i = 0 to 20 do
              Alcotest.(check bool)
                "non-negative" true
                (Mptcp_sim.Rng.stream_seed ~seed:123 i >= 0)
            done);
        tc "split decorrelates successive children" (fun () ->
            let r = Mptcp_sim.Rng.create 7 in
            let a = Mptcp_sim.Rng.split r and b = Mptcp_sim.Rng.split r in
            Alcotest.(check bool)
              "children differ" true
              (Mptcp_sim.Rng.float a <> Mptcp_sim.Rng.float b));
      ] );
  ]

(* The acceptance test of the determinism contract: one 12-run campaign
   executed serially and on 4 domains must produce structurally equal
   reports (modulo the jobs field). *)
let determinism_spec =
  {
    Spec.default with
    Spec.schedulers = [ "default"; "redundant_if_no_q" ];
    losses = [ 0.0; 0.02 ];
    seeds = [ 1; 2; 3 ];
    (* the loss-free bulk transfer completes at ~1.9 s simulated *)
    duration = 2.5;
  }

let execute_ok ~jobs spec =
  (* force_jobs: the determinism contract is tested at a fixed job
     count regardless of the machine's core count *)
  match Sweep.execute ~force_jobs:true ~jobs spec with
  | Ok r -> r
  | Error msg -> Alcotest.failf "sweep failed (jobs=%d): %s" jobs msg

let sweep_suite =
  [
    ( "exp sweep",
      [
        tc "serial and 4-domain runs produce equal reports" (fun () ->
            let serial = execute_ok ~jobs:1 determinism_spec in
            let parallel = execute_ok ~jobs:4 determinism_spec in
            Alcotest.(check int) "12 runs" 12 (List.length serial.Sweep.runs);
            Alcotest.(check int) "jobs recorded" 4 parallel.Sweep.jobs;
            Alcotest.(check bool)
              "equal_report" true
              (Sweep.equal_report serial parallel);
            (* sanity on the content: the loss-free default-scheduler
               runs complete inside the 2.5 s window (the redundant
               family trades completion time for tail latency) *)
            List.iter
              (fun r ->
                if
                  r.Sweep.r_params.Spec.loss = 0.0
                  && r.Sweep.r_params.Spec.scheduler = "default"
                then
                  Alcotest.(check bool)
                    "completed" true
                    (r.Sweep.r_completion <> None))
              serial.Sweep.runs);
        tc "fleet scenario: serial and 4-domain runs produce equal reports"
          (fun () ->
            let spec =
              {
                Spec.default with
                Spec.scenarios = [ "fleet" ];
                fleets = [ 2 ];
                rates = [ 60.0 ];
                sizes = [ "pareto:4096:1.5:65536" ];
                ramp = [ (0.0, 1.0); (4.0, 2.0) ];
                seeds = [ 1; 2 ];
                duration = 5.0;
              }
            in
            let serial = execute_ok ~jobs:1 spec in
            let parallel = execute_ok ~jobs:4 spec in
            Alcotest.(check bool)
              "equal_report" true
              (Sweep.equal_report serial parallel);
            List.iter
              (fun r ->
                let extra k =
                  match List.assoc_opt k r.Sweep.r_extra with
                  | Some v -> v
                  | None -> Alcotest.failf "missing extra %s" k
                in
                Alcotest.(check bool)
                  "open loop drove arrivals" true
                  (extra "arrivals" > 50.0);
                Alcotest.(check bool)
                  "flows completed" true
                  (extra "completed" > 0.0);
                Alcotest.(check bool)
                  "fct measured" true
                  (extra "mean_fct_ms" > 0.0);
                Alcotest.(check bool)
                  "peak concurrency seen" true
                  (extra "peak_live" >= 1.0))
              serial.Sweep.runs);
        tc "unknown scheduler and engine are rejected up front" (fun () ->
            (match
               Sweep.execute ~jobs:2
                 { Spec.default with Spec.schedulers = [ "nosuch" ] }
             with
            | Ok _ -> Alcotest.fail "expected an error"
            | Error msg ->
                Alcotest.(check bool)
                  "names the scheduler" true
                  (contains ~sub:"unknown scheduler nosuch" msg));
            match
              Sweep.execute ~jobs:2
                { Spec.default with Spec.engines = [ "jit" ] }
            with
            | Ok _ -> Alcotest.fail "expected an error"
            | Error msg ->
                Alcotest.(check bool)
                  "names the engine" true
                  (contains ~sub:"unknown engine jit" msg));
        tc "fault-axis campaign with invariants on, 2 domains" (fun () ->
            let file = Filename.temp_file "sweep" ".fs" in
            Out_channel.with_open_text file (fun oc ->
                output_string oc "0.5 sbf1 down\n1.5 sbf1 up\n");
            Fun.protect
              ~finally:(fun () -> Sys.remove file)
              (fun () ->
                let spec =
                  {
                    Spec.default with
                    Spec.faults =
                      [
                        { Spec.fault_label = "none"; fault_file = None };
                        { Spec.fault_label = "outage"; fault_file = Some file };
                      ];
                    seeds = [ 1; 2 ];
                    duration = 6.0;
                    invariants = true;
                  }
                in
                let report = execute_ok ~jobs:2 spec in
                Alcotest.(check int) "4 runs" 4 (List.length report.Sweep.runs);
                List.iter
                  (fun r ->
                    Alcotest.(check int)
                      "no invariant violations" 0 r.Sweep.r_inv_total;
                    Alcotest.(check bool)
                      "completed" true
                      (r.Sweep.r_completion <> None))
                  report.Sweep.runs;
                (* the fault axis must actually bite: the outage delays
                   the flow on every seed *)
                let completion r =
                  match r.Sweep.r_completion with
                  | Some t -> t
                  | None -> Alcotest.fail "incomplete"
                in
                let by_label label =
                  List.filter
                    (fun r ->
                      r.Sweep.r_params.Spec.fault.Spec.fault_label = label)
                    report.Sweep.runs
                in
                List.iter2
                  (fun clean faulted ->
                    Alcotest.(check bool)
                      "outage delays completion" true
                      (completion faulted > completion clean +. 0.5))
                  (by_label "none") (by_label "outage"));
            ());
        tc "bad fault script is rejected up front" (fun () ->
            let file = Filename.temp_file "sweep" ".fs" in
            Out_channel.with_open_text file (fun oc ->
                output_string oc "0.5 sbf1 explode\n");
            Fun.protect
              ~finally:(fun () -> Sys.remove file)
              (fun () ->
                match
                  Sweep.execute ~jobs:1
                    {
                      Spec.default with
                      Spec.faults =
                        [ { Spec.fault_label = "boom"; fault_file = Some file } ];
                    }
                with
                | Ok _ -> Alcotest.fail "expected an error"
                | Error msg ->
                    Alcotest.(check bool)
                      "diagnostic mentions the action" true
                      (contains ~sub:"explode" msg)))
      ] );
  ]

let cc_topology_suite =
  [
    ( "exp cc/topology axes",
      [
        tc "cc and topology axes parse" (fun () ->
            let s = spec_ok "cc lia olia ecoupled:0.25\ntopology dumbbell dumbbell-red\n" in
            Alcotest.(check (list string))
              "ccs" [ "lia"; "olia"; "ecoupled:0.25" ] s.Spec.ccs;
            Alcotest.(check (list string))
              "topologies" [ "dumbbell"; "dumbbell-red" ] s.Spec.topologies);
        tc "invalid cc values are rejected at parse time" (fun () ->
            Alcotest.(check bool) "unknown name" true
              (contains ~sub:"congestion" (spec_err "cc bogus\n"));
            Alcotest.(check bool) "epsilon range" true
              (contains ~sub:"epsilon" (spec_err "cc ecoupled:2.0\n")));
        tc "singleton cc/topology defaults preserve run ids" (fun () ->
            let s = spec_ok "scheduler a b\nloss 0.0 0.1\nseed 1..3\n" in
            let runs = Spec.runs s in
            Alcotest.(check int) "count unchanged" 12 (List.length runs);
            List.iteri
              (fun i r ->
                Alcotest.(check int) "run_id" i r.Spec.run_id;
                Alcotest.(check string) "cc default" "lia" r.Spec.cc;
                Alcotest.(check string) "topology default" "private"
                  r.Spec.topology)
              runs);
        tc "expansion order: cc outside topology outside loss" (fun () ->
            let s =
              spec_ok
                "cc lia reno\ntopology dumbbell dumbbell-red\nloss 0.0 \
                 0.1\nseed 1..2\n"
            in
            let runs = Spec.runs s in
            Alcotest.(check int) "count" 16 (List.length runs);
            Alcotest.(check int) "run_count" 16 (Spec.run_count s);
            let r = List.nth runs in
            Alcotest.(check int) "seed innermost" 2 (r 1).Spec.seed;
            Alcotest.(check (float 1e-9)) "then loss" 0.1 (r 2).Spec.loss;
            Alcotest.(check string) "then topology" "dumbbell-red"
              (r 4).Spec.topology;
            Alcotest.(check string) "cc outermost" "reno" (r 8).Spec.cc);
        tc "fairness scenario: serial and 4-domain runs produce equal reports"
          (fun () ->
            let spec =
              {
                Spec.default with
                Spec.scenarios = [ "fairness" ];
                ccs = [ "lia"; "reno" ];
                topologies = [ "dumbbell" ];
                seeds = [ 1; 2 ];
                duration = 3.0;
              }
            in
            let serial = execute_ok ~jobs:1 spec in
            let parallel = execute_ok ~jobs:4 spec in
            Alcotest.(check int) "4 runs" 4 (List.length serial.Sweep.runs);
            Alcotest.(check bool)
              "equal_report" true
              (Sweep.equal_report serial parallel);
            List.iter
              (fun run ->
                Alcotest.(check bool) "jain reported" true
                  (List.mem_assoc "jain" run.Sweep.r_extra);
                Alcotest.(check bool) "per-link drops reported" true
                  (List.mem_assoc "link_bottleneck_drops" run.Sweep.r_extra))
              serial.Sweep.runs;
            (* the cc axis must actually change the outcome *)
            let goodput cc =
              List.filter
                (fun run -> run.Sweep.r_params.Spec.cc = cc)
                serial.Sweep.runs
              |> List.fold_left (fun a run -> a +. run.Sweep.r_goodput_bps) 0.0
            in
            Alcotest.(check bool) "reno grabs more than lia" true
              (goodput "reno" > goodput "lia"));
        tc "fairness without a shared topology is rejected up front" (fun () ->
            match
              Sweep.execute ~jobs:1
                { Spec.default with Spec.scenarios = [ "fairness" ] }
            with
            | Ok _ -> Alcotest.fail "expected an error"
            | Error msg ->
                Alcotest.(check bool)
                  "names the topology axis" true
                  (contains ~sub:"topology" msg));
      ] );
  ]

(* One run of [scenario] through the registry, the scheduler put on each
   connection by [install] (the two drivers' hooks below). *)
let registry_run ~install scenario =
  let module R = Progmp_runtime in
  ignore (Schedulers.Specs.load_all ());
  let sched = Option.get (R.Scheduler.find "default") in
  let p =
    {
      Spec.run_id = 0;
      scenario;
      scheduler = "default";
      engine = "interpreter";
      cc = "lia";
      topology = (if scenario = "fairness" then "dumbbell" else "private");
      loss = 0.01;
      fleet = 1;
      rate = 0.0;
      size = "default";
      fault = { Spec.fault_label = "none"; fault_file = None };
      seed = 3;
    }
  in
  (Scenarios.run
     {
       Scenarios.duration = 3.0;
       scheduler = sched;
       topology = Some Mptcp_sim.Topology.dumbbell;
       ramp = [];
       install = install sched;
       instrument = ignore;
     }
     p)
    .Scenarios.result

let shared_install _ conn =
  Progmp_runtime.Api.set_scheduler (Mptcp_sim.Connection.sock conn) "default"

let private_install sched conn =
  (Mptcp_sim.Connection.sock conn).Progmp_runtime.Api.scheduler <-
    Progmp_runtime.Scheduler.instantiate_private sched ~engine:"interpreter"

let scenarios_suite =
  let sorted = List.sort compare in
  [
    ( "exp scenarios",
      [
        tc "every known scenario has exactly one registry entry" (fun () ->
            Alcotest.(check (list string))
              "registry = Spec.known_scenarios"
              (sorted Spec.known_scenarios) (sorted Scenarios.names);
            Alcotest.(check int)
              "no duplicate entries"
              (List.length (List.sort_uniq compare Scenarios.names))
              (List.length Scenarios.names));
      ]
      @ List.map
          (fun scenario ->
            tc (scenario ^ ": shared and private installs agree") (fun () ->
                let shared = registry_run ~install:shared_install scenario in
                let priv = registry_run ~install:private_install scenario in
                Alcotest.(check bool)
                  "equal run_result" true (shared = priv);
                Alcotest.(check bool)
                  "the scheduler ran" true
                  (shared.Sweep.r_executions > 0
                  || List.mem_assoc "completed" shared.Sweep.r_extra)))
          [ "bulk"; "stream"; "short-flows"; "http2"; "dash"; "fairness" ]
      @ [
          tc "every engine hosts a fleet from one compile" (fun () ->
              (* engines are a fleet axis: identical totals on each, and
                 each compiles the scheduler once however many slots it
                 fills *)
              let open Mptcp_sim in
              let module R = Progmp_runtime in
              let template =
                R.Scheduler.of_source ~name:"fleet-engine-axis"
                  Schedulers.Specs.default
              in
              let template =
                (* a program no earlier test compiled *)
                {
                  template with
                  R.Scheduler.program =
                    Progmp_lang.Optimize.program
                      (Progmp_lang.Typecheck.compile_source
                         Schedulers.Specs.default);
                }
              in
              let seed = 5 in
              let host engine =
                let _, misses0 = R.Engine.cache_stats () in
                let fleet =
                  Fleet.create ~seed ~scheduler:(template, engine) ~groups:4
                    ~paths:(Sweep.fleet_group_paths ~loss:0.01)
                    ()
                in
                let sizes = Rng.stream ~seed 2 in
                Traffic.drive ~clock:(Fleet.clock fleet)
                  ~rng:(Rng.stream ~seed 1)
                  ~rate:(fun _ -> 200.0)
                  ~until:0.5
                  (fun () ->
                    Fleet.arrive fleet
                      ~size:(Traffic.draw_size Traffic.default_pareto sizes));
                ignore (Fleet.run ~until:10.0 fleet);
                let _, misses1 = R.Engine.cache_stats () in
                Alcotest.(check bool)
                  (engine ^ ": many slots") true (Fleet.slot_count fleet > 8);
                Alcotest.(check int)
                  (engine ^ ": compiled once for the whole fleet") 1
                  (misses1 - misses0);
                let t = Fleet.totals fleet in
                ( t.Fleet.t_executions,
                  (t.Fleet.t_delivered_bytes, t.Fleet.t_wire_bytes),
                  (t.Fleet.t_completed, Printf.sprintf "%h" t.Fleet.t_fct_sum) )
              in
              let reference = host "interpreter" in
              let (executions, _, (completed, _)) = reference in
              Alcotest.(check bool)
                "flows completed" true (completed > 0 && executions > 0);
              List.iter
                (fun engine ->
                  Alcotest.(check (triple int (pair int int) (pair int string)))
                    (engine ^ " totals equal the interpreter's")
                    reference (host engine))
                (List.filter
                   (fun e -> e <> "interpreter")
                   (R.Engine.names ())));
          tc "thin-link fleet: every flow completes" (fun () ->
              (* idle subflows throttled by TSQ once waited for an ack
                 that never came, stranding flows with data queued *)
              let open Mptcp_sim in
              ignore (Schedulers.Specs.load_all ());
              let sched =
                Option.get (Progmp_runtime.Scheduler.find "default")
              in
              let seed = 7 in
              let fleet =
                Fleet.create ~seed ~scheduler:(sched, "interpreter")
                  ~groups:32
                  ~paths:(Sweep.fleet_thin_paths ~loss:0.0)
                  ()
              in
              let sizes = Rng.stream ~seed 2 in
              Traffic.drive ~clock:(Fleet.clock fleet)
                ~rng:(Rng.stream ~seed 1)
                ~rate:(fun _ -> 40.0)
                ~until:1.0
                (fun () ->
                  Fleet.arrive fleet
                    ~size:(Traffic.draw_size Traffic.default_pareto sizes));
              ignore (Fleet.run ~until:40.0 fleet);
              let tot = Fleet.totals fleet in
              Alcotest.(check bool) "flows arrived" true (tot.Fleet.t_arrivals > 0);
              Alcotest.(check int) "no flow left live" 0 tot.Fleet.t_live;
              Alcotest.(check int)
                "every arrival completed" tot.Fleet.t_arrivals
                tot.Fleet.t_completed);
        ] );
  ]

let suite =
  spec_suite @ rng_suite @ sweep_suite @ cc_topology_suite @ scenarios_suite
