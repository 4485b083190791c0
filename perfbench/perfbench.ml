(* Repository benchmark, one iteration per process.

   [perfbench.exe --workload W --seed N [--trace] [--tiny]] runs one
   iteration of workload W through the public APIs (Fleet.create /
   Fleet.arrive / Fleet.run for the open-loop fleets, Sweep.execute for
   the closed-loop bulk campaign), checks its outputs and prints one
   JSON line: the correctness verdict, a fingerprint of the simulated
   results, the flow counts and every metric with its unit. run.py
   repeats iterations in fresh processes for the requested wall time and
   reports medians.

   Untraced iterations measure the end-to-end metrics and the GC
   counters. Traced iterations ([--trace]) wrap every registered engine
   factory to time compiles and decision calls and to read the meta
   socket queue depths, time each Fleet.arrive, run the event loop in
   fixed simulated slices and poll GC pauses from runtime_events. A
   span's self time is its duration minus the benchmark-timed spans
   nested inside it. All load runs on one domain with the program's
   default GC settings.

   [perfbench.exe --workload W --seed N --setup-only] performs only the
   cold set-up of W (engine registration, zoo load, the fleet or spec
   build) and prints its time; run.py takes the median over many such
   fresh processes.

   [perfbench.exe --smoke] runs every benchmark workload at a tiny size,
   untraced then traced, and fails unless the correctness gate passes,
   the fingerprints agree and every metric prints with a unit and a
   finite value. *)

open Mptcp_sim
module R = Progmp_runtime
module X = Mptcp_exp

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let ms ns = float_of_int ns /. 1e6
let pct part whole = 100.0 *. float_of_int part /. float_of_int (max 1 whole)
let per a b = float_of_int a /. float_of_int (max 1 b)

(* ---------- spans ---------- *)

type span = { mutable count : int; mutable total_ns : int; mutable self_ns : int }

let span () = { count = 0; total_ns = 0; self_ns = 0 }

(* time covered by benchmark-timed spans nested in the open span *)
let nested = ref 0

let[@inline] enter () =
  let saved = !nested in
  nested := 0;
  saved

let[@inline] leave s ~saved ~t0 =
  let d = now_ns () - t0 in
  s.count <- s.count + 1;
  s.total_ns <- s.total_ns + d;
  s.self_ns <- s.self_ns + d - !nested;
  nested := saved + d;
  d

let compile_span = span ()
let decide_span = span ()
let arrive_span = span ()
let sim_span = span ()
let poll_span = span ()

(* ---------- GC pauses from runtime_events ---------- *)

module Gc_pauses = struct
  let total_ns = ref 0
  let max_ns = ref 0
  let count = ref 0
  let lost = ref 0
  let depth = ref 0
  let began = ref 0

  (* the stop-the-world collector work a single domain performs;
     sub-phases nest inside these and are covered by the union *)
  let counted : Runtime_events.runtime_phase -> bool = function
    | EV_MINOR | EV_MAJOR_SLICE | EV_MAJOR | EV_STW_LEADER
    | EV_EXPLICIT_GC_MINOR | EV_EXPLICIT_GC_MAJOR | EV_EXPLICIT_GC_FULL_MAJOR
    | EV_EXPLICIT_GC_COMPACT | EV_EXPLICIT_GC_MAJOR_SLICE ->
        true
    | _ -> false

  let ts t = Int64.to_int (Runtime_events.Timestamp.to_int64 t)

  let callbacks =
    Runtime_events.Callbacks.create
      ~runtime_begin:(fun _ t phase ->
        if counted phase then begin
          if !depth = 0 then began := ts t;
          incr depth
        end)
      ~runtime_end:(fun _ t phase ->
        if counted phase && !depth > 0 then begin
          decr depth;
          if !depth = 0 then begin
            let d = ts t - !began in
            incr count;
            total_ns := !total_ns + d;
            if d > !max_ns then max_ns := d
          end
        end)
      ~lost_events:(fun _ n -> lost := !lost + n)
      ()

  let cursor = ref None

  let start () =
    if !cursor = None then begin
      Runtime_events.start ();
      cursor := Some (Runtime_events.create_cursor None)
    end

  let poll () =
    match !cursor with
    | None -> ()
    | Some c ->
        let saved = enter () and t0 = now_ns () in
        ignore (Runtime_events.read_poll c callbacks None);
        ignore (leave poll_span ~saved ~t0)

  let reset () =
    poll ();
    total_ns := 0;
    max_ns := 0;
    count := 0
end

(* ---------- engine wrapper ---------- *)

let q_sum = ref 0
let q_max = ref 0
let qu_sum = ref 0
let rq_sum = ref 0

(* Re-register every engine under its own name with a factory that
   times each compile and each decision call and reads the queue
   depths the decision sees. Compile.register_engines is idempotent,
   so later calls keep these wrappers. *)
let wrap_engines =
  let wrapped = ref false in
  fun () ->
    if not !wrapped then begin
      wrapped := true;
      List.iter
        (fun (e : R.Engine.t) ->
          let factory = e.R.Engine.factory in
          R.Engine.register ~caps:e.R.Engine.caps e.R.Engine.engine_name
            (fun program ->
              let saved = enter () and t0 = now_ns () in
              let run = factory program in
              ignore (leave compile_span ~saved ~t0);
              (* a compile allocates enough to fill the event ring *)
              Gc_pauses.poll ();
              fun env ->
                let q = R.Pqueue.length env.R.Env.q in
                q_sum := !q_sum + q;
                if q > !q_max then q_max := q;
                qu_sum := !qu_sum + R.Pqueue.length env.R.Env.qu;
                rq_sum := !rq_sum + R.Pqueue.length env.R.Env.rq;
                let saved = enter () and t0 = now_ns () in
                run env;
                ignore (leave decide_span ~saved ~t0);
                if decide_span.count land 1023 = 0 then Gc_pauses.poll ()))
        (R.Engine.all ())
    end

(* ---------- workloads ---------- *)

type fleet_w = {
  groups : int;
  thin : bool;  (** thin-access links (Sweep.fleet_thin_paths) *)
  rate : float;  (** Poisson arrivals per simulated second *)
  engine : string;
  arrive_for : float;  (** arrivals stop here... *)
  horizon : float;  (** ...and the run ends here, after a drain *)
  slice : float;  (** traced runs advance the loop in these steps *)
}

type bulk_w = {
  conns : int;
  schedulers : string list;
  loss : float;
  duration : float;
  bytes : int;  (** per connection, fixed by the bulk scenario *)
}

type workload = Fleet of fleet_w | Bulk of bulk_w

(* The benchmark's workloads (BENCHMARK.json lists the same ones).
   fleet-crowd is held back: on thin links a share of its flows stalls
   with an empty event queue, so its correctness gate fails. It stays
   runnable here to reproduce that defect. *)
let workload_names = [ "fleet-churn"; "bulk-deep" ]
let held_back = [ "fleet-crowd" ]

let workload ~tiny name =
  match name with
  | "fleet-churn" ->
      Some
        (Fleet
           (if tiny then
              { groups = 2; thin = false; rate = 200.0; engine = "threaded";
                arrive_for = 1.0; horizon = 3.0; slice = 0.05 }
            else
              { groups = 32; thin = false; rate = 4800.0; engine = "threaded";
                arrive_for = 4.0; horizon = 6.0; slice = 0.05 }))
  | "fleet-crowd" ->
      Some
        (Fleet
           (if tiny then
              { groups = 32; thin = true; rate = 40.0; engine = "interpreter";
                arrive_for = 1.0; horizon = 40.0; slice = 0.05 }
            else
              { groups = 2048; thin = true; rate = 3000.0;
                engine = "interpreter"; arrive_for = 10.0; horizon = 40.0;
                slice = 0.05 }))
  | "bulk-deep" ->
      Some
        (Bulk
           (if tiny then
              { conns = 1; schedulers = [ "default"; "redundant" ];
                loss = 0.02; duration = 30.0; bytes = 4_000_000 }
            else
              { conns = 8; schedulers = [ "default"; "redundant" ];
                loss = 0.02; duration = 30.0; bytes = 4_000_000 }))
  | _ -> None

(* ---------- one iteration ---------- *)

type outcome = {
  errors : string list;
  fingerprint : string;
  attempted : int;  (** flows: fleet arrivals or bulk connections *)
  failed : int;  (** flows not completed by the end of the run *)
  metrics : (string * float * string) list;
}

(* What a workload run measured, before it is turned into metrics. *)
type measured = {
  zoo_ns : int;
  build_ns : int;
  wall_ns : int;  (** the run, after set-up *)
  runs : int;  (** simulated runs in it: 1, or the campaign's runs *)
  decisions : int;
  peak_conns : int;
  heap_over : float;  (** top heap bytes over the live base *)
  gc0 : Gc.stat;
  pending_peak : int;
  model : (string * float * string) list;  (** counts from the results *)
}

let check errors ok fmt =
  Fmt.kstr (fun msg -> if not ok then errors := msg :: !errors) fmt

(* Set-up: engine registration and zoo load, then the build of the
   workload's world (a fleet or a campaign spec), each timed once in a
   cold process. Tracing hooks are installed between the two, untimed. *)
let setup ~traced build =
  let t0 = now_ns () in
  Progmp_compiler.Compile.register_engines ();
  ignore (Schedulers.Specs.load_all ());
  let zoo_ns = now_ns () - t0 in
  if traced then begin
    wrap_engines ();
    Gc_pauses.start ()
  end;
  let t0 = now_ns () in
  let x = build () in
  (x, zoo_ns, now_ns () - t0)

let setup_metrics ~zoo_ns ~build_ns =
  [ ("setup.zoo_ms", ms zoo_ns, "ms"); ("setup.build_ms", ms build_ns, "ms");
    ("setup_s", float_of_int (zoo_ns + build_ns) *. 1e-9, "s") ]

(* Runs [f] after a compaction and returns its result with its wall
   time, the GC counters before it and its top heap over the live base
   before it — the base the hosting cost is charged against. *)
let measure_run ~traced f =
  Gc.compact ();
  let base = (Gc.stat ()).Gc.live_words in
  let gc0 = Gc.quick_stat () in
  if traced then begin
    List.iter
      (fun s ->
        s.count <- 0;
        s.total_ns <- 0;
        s.self_ns <- 0)
      [ compile_span; decide_span; arrive_span; sim_span; poll_span ];
    nested := 0;
    q_sum := 0;
    q_max := 0;
    qu_sum := 0;
    rq_sum := 0;
    Gc_pauses.reset ()
  end;
  let t0 = now_ns () in
  let x = f () in
  let wall_ns = now_ns () - t0 in
  let top = (Gc.quick_stat ()).Gc.top_heap_words in
  (x, wall_ns, gc0, float_of_int ((top - base) * (Sys.word_size / 8)))

let metrics_of ~traced m =
  let wall = m.wall_ns in
  let common =
    setup_metrics ~zoo_ns:m.zoo_ns ~build_ns:m.build_ns
    @ [ ("wall_s", float_of_int wall *. 1e-9, "s") ]
  in
  if traced then begin
    Gc_pauses.poll ();
    let calls = decide_span.count in
    common
    @ [
        ("engine.instantiations", float_of_int compile_span.count, "count");
        ("engine.instantiate_ms", ms compile_span.total_ns, "ms");
        ("engine.instantiate_share", pct compile_span.total_ns wall, "%");
        ("engine.calls", float_of_int calls, "count");
        ("engine.calls_per_execution", per calls m.decisions, "ratio");
        ("engine.decision_ns", per decide_span.total_ns calls, "ns");
        ("engine.share", pct decide_span.total_ns wall, "%");
        ("fleet.arrive_self_share", pct arrive_span.self_ns wall, "%");
        ("meta.q_depth_mean", per !q_sum calls, "packets");
        ("meta.q_depth_max", float_of_int !q_max, "packets");
        ("meta.qu_depth_mean", per !qu_sum calls, "packets");
        ("meta.rq_depth_mean", per !rq_sum calls, "packets");
        ("sim.self_ns_per_decision", per sim_span.self_ns m.decisions, "ns");
        ("sim.self_share", pct sim_span.self_ns wall, "%");
        ("eventq.pending_peak", float_of_int m.pending_peak, "count");
        ("gc.pause_ms", ms !Gc_pauses.total_ns, "ms");
        ("gc.pause_share", pct !Gc_pauses.total_ns wall, "%");
        ("gc.pause_max_ms", ms !Gc_pauses.max_ns, "ms");
        ("gc.pauses", float_of_int !Gc_pauses.count, "count");
        ("trace.gc_lost_events", float_of_int !Gc_pauses.lost, "count");
      ]
  end
  else begin
    let gc1 = Gc.quick_stat () in
    let per_decision a b = (a -. b) /. float_of_int (max 1 m.decisions) in
    common @ m.model
    @ [
        ("decisions_per_s", float_of_int m.decisions /. (float_of_int wall *. 1e-9), "1/s");
        ("bytes_per_conn", m.heap_over /. float_of_int (max 1 m.peak_conns), "B");
        ( "gc.minor_words_per_decision",
          per_decision gc1.Gc.minor_words m.gc0.Gc.minor_words,
          "words" );
        ( "gc.promoted_words_per_decision",
          per_decision gc1.Gc.promoted_words m.gc0.Gc.promoted_words,
          "words" );
        ( "gc.major_collections",
          float_of_int (gc1.Gc.major_collections - m.gc0.Gc.major_collections),
          "count" );
        ( "gc.top_heap_mb",
          float_of_int (gc1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6,
          "MB" );
        ("run.wall_ms_mean", ms wall /. float_of_int (max 1 m.runs), "ms");
      ]
  end

let build_fleet ~seed w () =
  let sched = Option.get (R.Scheduler.find "default") in
  let paths =
    (if w.thin then X.Sweep.fleet_thin_paths else X.Sweep.fleet_group_paths)
      ~loss:0.0
  in
  Fleet.create ~seed ~scheduler:(sched, w.engine) ~groups:w.groups ~paths ()

let build_bulk ~seed b () =
  match
    X.Spec.parse
      (Fmt.str
         "scenario bulk\nscheduler %s\nengine interpreter\nfleet %d\n\
          loss %g\nseed %d\nduration %g\n"
         (String.concat " " b.schedulers)
         b.conns b.loss seed b.duration)
  with
  | Ok s -> s
  | Error msg -> failwith ("spec: " ^ msg)

let run_fleet ~seed ~traced w =
  let fleet, zoo_ns, build_ns = setup ~traced (build_fleet ~seed w) in
  let clock = Fleet.clock fleet in
  (* open-loop Poisson arrivals at [w.rate] until [w.arrive_for], with
     bounded-Pareto sizes, both drawn from the seed *)
  let sizes = Rng.stream ~seed 2 and n = ref 0 in
  X.Traffic.drive ~clock ~rng:(Rng.stream ~seed 1)
    ~rate:(fun _ -> w.rate)
    ~until:w.arrive_for
    (fun () ->
      incr n;
      let size = X.Traffic.draw_size X.Traffic.default_pareto sizes in
      if traced then begin
        let saved = enter () and t0 = now_ns () in
        Fleet.arrive fleet ~size;
        ignore (leave arrive_span ~saved ~t0)
      end
      else Fleet.arrive fleet ~size);
  let (events, pending_peak), wall_ns, gc0, heap_over =
    measure_run ~traced (fun () ->
        if not traced then (Fleet.run ~until:w.horizon fleet, 0)
        else begin
          (* fixed simulated slices: sample the pending events and drain
             the GC event ring between them *)
          let events = ref 0 and peak = ref 0 and k = ref 1 and fin = ref false in
          while not !fin do
            let until = Float.min w.horizon (float_of_int !k *. w.slice) in
            let saved = enter () and t0 = now_ns () in
            events := !events + Fleet.run ~until fleet;
            ignore (leave sim_span ~saved ~t0);
            peak := max !peak (Eventq.live_nodes clock);
            Gc_pauses.poll ();
            incr k;
            fin := until >= w.horizon
          done;
          (!events, !peak)
        end)
  in
  let tot = Fleet.totals fleet in
  let errors = ref [] in
  let n = !n in
  check errors (tot.Fleet.t_arrivals = n) "arrivals %d, expected %d"
    tot.Fleet.t_arrivals n;
  check errors
    (tot.Fleet.t_arrivals = tot.Fleet.t_completed + tot.Fleet.t_live)
    "arrivals %d <> completed %d + live %d" tot.Fleet.t_arrivals
    tot.Fleet.t_completed tot.Fleet.t_live;
  check errors
    (tot.Fleet.t_delivered_bytes <= tot.Fleet.t_wire_bytes)
    "delivered %d > wire %d" tot.Fleet.t_delivered_bytes tot.Fleet.t_wire_bytes;
  (* the loop may stop early only once every flow has finished: an
     empty event queue with live flows is a stall *)
  check errors
    (Eventq.now clock = w.horizon || tot.Fleet.t_live = 0)
    "clock stopped at %g s before the end %g s with %d flows live"
    (Eventq.now clock) w.horizon tot.Fleet.t_live;
  let reachable = Hashtbl.create 64 in
  Fleet.iter_live_packets fleet (fun p ->
      check errors (not p.R.Packet.pooled) "live connection holds pooled packet %d"
        p.R.Packet.id;
      Hashtbl.replace reachable p.R.Packet.id ());
  (* a live connection keeps every packet it wrote checked out until it
     retires, delivered ones included, so outstanding packets cover the
     reachable ones and equal them exactly once the fleet has drained *)
  let outstanding = R.Packet.Pool.outstanding (Fleet.packet_pool fleet) in
  check errors
    (if tot.Fleet.t_live = 0 then outstanding = Hashtbl.length reachable
     else outstanding >= Hashtbl.length reachable)
    "packet pool outstanding %d vs %d reachable (%d live)" outstanding
    (Hashtbl.length reachable) tot.Fleet.t_live;
  let decisions = tot.Fleet.t_executions in
  check errors (decisions > 0) "no scheduler decisions";
  let slots = Fleet.slot_count fleet in
  let count x = float_of_int x in
  ( {
      zoo_ns; build_ns; wall_ns; decisions; gc0; heap_over; pending_peak;
      runs = 1;
      peak_conns = tot.Fleet.t_peak_live;
      model =
        [
          ("fleet.arrivals", count tot.Fleet.t_arrivals, "count");
          ("fleet.slots", count slots, "count");
          ("fleet.recycle_ratio", per tot.Fleet.t_arrivals slots, "ratio");
          ("fleet.peak_live", count tot.Fleet.t_peak_live, "count");
          ("sim.events", count events, "count");
          ("sim.events_per_decision", per events decisions, "ratio");
          ( "tcp.wire_per_delivered",
            per tot.Fleet.t_wire_bytes tot.Fleet.t_delivered_bytes,
            "ratio" );
          ("sweep.runs", 0.0, "count");
        ];
    },
    {
      errors = List.rev !errors;
      fingerprint =
        Fmt.str "decisions=%d events=%d delivered=%d wire=%d completed=%d fct_sum=%h"
          decisions events tot.Fleet.t_delivered_bytes tot.Fleet.t_wire_bytes
          tot.Fleet.t_completed tot.Fleet.t_fct_sum;
      attempted = n;
      failed = tot.Fleet.t_live;
      metrics = [];
    } )

let run_bulk ~seed ~traced b =
  let spec, zoo_ns, build_ns = setup ~traced (build_bulk ~seed b) in
  (* the whole campaign is one span: its self time is the event loop,
     the protocol and the campaign layer together *)
  let report, wall_ns, gc0, heap_over =
    measure_run ~traced (fun () ->
        let saved = enter () and t0 = now_ns () in
        let report = X.Sweep.execute ~jobs:1 spec in
        ignore (leave sim_span ~saved ~t0);
        report)
  in
  let runs =
    match report with
    | Ok r -> r.X.Sweep.runs
    | Error msg -> failwith ("sweep: " ^ msg)
  in
  let errors = ref [] in
  let nruns = List.length runs in
  check errors (nruns = List.length b.schedulers) "%d runs, expected %d" nruns
    (List.length b.schedulers);
  let completed = ref 0 and decisions = ref 0 in
  let delivered = ref 0 and wire = ref 0 in
  let prints =
    List.map
      (fun (r : X.Sweep.run_result) ->
        let name = r.X.Sweep.r_params.X.Spec.scheduler in
        let w = List.fold_left (fun n (_, x) -> n + x) 0 r.X.Sweep.r_subflow_bytes in
        decisions := !decisions + r.X.Sweep.r_executions;
        delivered := !delivered + r.X.Sweep.r_delivered;
        wire := !wire + w;
        (* a run ends when its event queue drains, after the last
           connection completed and before the horizon *)
        (match r.X.Sweep.r_completion with
        | Some t ->
            completed := !completed + b.conns;
            check errors
              (r.X.Sweep.r_sim_time >= t && r.X.Sweep.r_sim_time <= b.duration)
              "%s: clock %h outside [completion %h, end %g]" name
              r.X.Sweep.r_sim_time t b.duration
        | None -> check errors false "%s: a connection did not complete" name);
        check errors
          (r.X.Sweep.r_delivered = b.conns * b.bytes)
          "%s: delivered %d, expected %d" name r.X.Sweep.r_delivered
          (b.conns * b.bytes);
        check errors (r.X.Sweep.r_delivered <= w) "%s: delivered %d > wire %d"
          name r.X.Sweep.r_delivered w;
        check errors (r.X.Sweep.r_executions > 0) "%s: no decisions" name;
        Fmt.str "%s:%d/%d/%d/%h/%h" name r.X.Sweep.r_executions
          r.X.Sweep.r_delivered w
          (Option.value r.X.Sweep.r_completion ~default:Float.nan)
          r.X.Sweep.r_sim_time)
      runs
  in
  let attempted = b.conns * List.length b.schedulers in
  ( {
      zoo_ns; build_ns; wall_ns; gc0; heap_over;
      decisions = !decisions;
      runs = nruns;
      peak_conns = b.conns;
      pending_peak = 0;
      (* the campaign's event queues are internal to Sweep: their event
         counts are not observable through its API and read 0 *)
      model =
        [
          ("fleet.arrivals", 0.0, "count");
          ("fleet.slots", 0.0, "count");
          ("fleet.recycle_ratio", 0.0, "ratio");
          ("fleet.peak_live", float_of_int b.conns, "count");
          ("sim.events", 0.0, "count");
          ("sim.events_per_decision", 0.0, "ratio");
          ("tcp.wire_per_delivered", per !wire !delivered, "ratio");
          ("sweep.runs", float_of_int nruns, "count");
        ];
    },
    {
      errors = List.rev !errors;
      fingerprint =
        Fmt.str "decisions=%d delivered=%d wire=%d completed=%d runs=%s"
          !decisions !delivered !wire !completed (String.concat "," prints);
      attempted;
      failed = attempted - !completed;
      metrics = [];
    } )

let run_workload ~seed ~traced w =
  let m, o =
    match w with
    | Fleet w -> run_fleet ~seed ~traced w
    | Bulk b -> run_bulk ~seed ~traced b
  in
  let lost = !Gc_pauses.lost in
  let errors =
    if traced && lost > 0 then
      o.errors @ [ Fmt.str "runtime_events lost %d GC events" lost ]
    else o.errors
  in
  { o with errors; metrics = metrics_of ~traced m }

(* ---------- output ---------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Fmt.str "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_number x = if Float.is_finite x then Fmt.str "%.17g" x else "null"

let print_outcome ~workload ~seed ~traced o =
  let metrics =
    List.map
      (fun (name, v, unit) ->
        Fmt.str "%s: {\"value\": %s, \"unit\": %s}" (json_string name)
          (json_number v) (json_string unit))
      o.metrics
  in
  Fmt.pr
    "{\"workload\": %s, \"seed\": %d, \"traced\": %b, \"correct\": %b, \
     \"errors\": [%s], \"fingerprint\": %s, \"attempted\": %d, \"failed\": %d, \
     \"metrics\": {%s}}@."
    (json_string workload) seed traced (o.errors = [])
    (String.concat ", " (List.map json_string o.errors))
    (json_string o.fingerprint) o.attempted o.failed
    (String.concat ", " metrics)

(* ---------- smoke ---------- *)

(* Metric names and units are checked against BENCHMARK.json by
   run.py --smoke; here every metric only needs a unit and a finite
   value. *)
let smoke () =
  let failures = ref 0 in
  let fail fmt =
    Fmt.kstr
      (fun msg ->
        incr failures;
        Fmt.pr "FAIL %s@." msg)
      fmt
  in
  let check_metrics ~workload ~mode (o : outcome) =
    List.iter
      (fun (name, v, unit) ->
        if unit = "" then fail "%s %s: metric %s has no unit" workload mode name;
        if not (Float.is_finite v) then
          fail "%s %s: metric %s is not finite" workload mode name;
        Fmt.pr "  %-32s %g %s@." name v unit)
      o.metrics
  in
  let seed = 7 in
  List.iter
    (fun name ->
      let w = Option.get (workload ~tiny:true name) in
      let u = run_workload ~seed ~traced:false w in
      let t = run_workload ~seed ~traced:true w in
      Fmt.pr "%s: %s@." name u.fingerprint;
      List.iter (fun e -> fail "%s untraced: %s" name e) u.errors;
      List.iter (fun e -> fail "%s traced: %s" name e) t.errors;
      if t.fingerprint <> u.fingerprint then
        fail "%s: traced fingerprint %s <> untraced %s" name t.fingerprint
          u.fingerprint;
      if u.attempted < 1 then fail "%s: no flows attempted" name;
      check_metrics ~workload:name ~mode:"untraced" u;
      check_metrics ~workload:name ~mode:"traced" t)
    workload_names;
  if !failures > 0 then begin
    Fmt.pr "smoke: %d failure(s)@." !failures;
    exit 1
  end;
  Fmt.pr "smoke: ok@."

(* ---------- main ---------- *)

let () =
  let name = ref "" and seed = ref 1 and traced = ref false in
  let tiny = ref false and smoke_mode = ref false and setup_only = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string name, "NAME  fleet-churn | bulk-deep");
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--trace", Arg.Set traced, " traced iteration (per-layer metrics)");
      ("--tiny", Arg.Set tiny, " tiny input size");
      ("--setup-only", Arg.Set setup_only, " time the cold set-up only");
      ("--smoke", Arg.Set smoke_mode, " every workload at a tiny size, with checks");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N [--trace] [--tiny] [--setup-only] | --smoke";
  if !smoke_mode then smoke ()
  else
    match workload ~tiny:!tiny !name with
    | None ->
        Fmt.epr "perfbench: unknown workload %S (known: %s; held back: %s)@." !name
          (String.concat ", " workload_names)
          (String.concat ", " held_back);
        exit 2
    | Some w ->
        let seed = !seed in
        let o =
          if !setup_only then begin
            let zoo_ns, build_ns =
              match w with
              | Fleet w ->
                  let _, z, b = setup ~traced:false (build_fleet ~seed w) in
                  (z, b)
              | Bulk b ->
                  let _, z, b = setup ~traced:false (build_bulk ~seed b) in
                  (z, b)
            in
            { errors = []; fingerprint = ""; attempted = 0; failed = 0;
              metrics = setup_metrics ~zoo_ns ~build_ns }
          end
          else run_workload ~seed ~traced:!traced w
        in
        print_outcome ~workload:!name ~seed ~traced:!traced o;
        if o.errors <> [] then exit 1
