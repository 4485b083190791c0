(** Benchmark harness: regenerates every table and figure of the paper's
    evaluation (see DESIGN.md §4 for the experiment index and
    EXPERIMENTS.md for paper-vs-measured results).

    Usage: [dune exec bench/main.exe] runs everything;
    [dune exec bench/main.exe -- fig12 fig13] runs a subset. Absolute
    numbers differ from the paper (our substrate is a simulator, not the
    authors' kernel testbed); each experiment prints the paper's
    qualitative expectation next to the measured series so the shape can
    be compared directly. *)

open Mptcp_sim
open Progmp_runtime
module Figures = Mptcp_exp.Figures

(* Optional CSV export: [--csv DIR] writes one plot-ready file per
   experiment next to the printed tables. *)
let csv_dir : string option ref = ref None

let csv_channels : (string, out_channel) Hashtbl.t = Hashtbl.create 8

let csv ~experiment ~header row =
  match !csv_dir with
  | None -> ()
  | Some dir ->
      let oc =
        match Hashtbl.find_opt csv_channels experiment with
        | Some oc -> oc
        | None ->
            (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
            let oc = open_out (Filename.concat dir (experiment ^ ".csv")) in
            output_string oc (String.concat "," header ^ "\n");
            Hashtbl.replace csv_channels experiment oc;
            oc
      in
      output_string oc (String.concat "," row ^ "\n")

let close_csv () = Hashtbl.iter (fun _ oc -> close_out oc) csv_channels

let section id title expectation =
  Fmt.pr "@.==================================================================@.";
  Fmt.pr "%s — %s@." id title;
  Fmt.pr "paper expectation: %s@." expectation;
  Fmt.pr "==================================================================@."

let load_zoo () = ignore (Schedulers.Specs.load_all ())

(* ------------------------------------------------------------------ *)
(* Fig. 1 — motivation: MinRTT vs backup mode on an interactive stream *)
(* ------------------------------------------------------------------ *)

(* prints one row and returns the run for its per-second series *)
let run_stream label ~scheduler ~lte_backup =
  let r = Figures.stream ~scheduler ~lte_backup in
  Fmt.pr "%-26s lte share %5.1f%%   stalled seconds %2d   delivered %5.1f MB@."
    label r.Figures.lte_share r.Figures.stalled_s
    (float_of_int r.Figures.delivered /. 1e6);
  r

let fig1 () =
  section "Fig. 1"
    "interactive stream (1 MB/s then 4 MB/s) over WiFi (10 ms) + LTE (40 ms)"
    "MinRTT places ~30% of the traffic on LTE even when WiFi would suffice; \
     backup mode silences LTE but starves the 4 MB/s phase";
  let regular =
    run_stream "default (LTE regular)" ~scheduler:"default" ~lte_backup:false
  in
  ignore
    (run_stream "default (LTE backup)" ~scheduler:"default" ~lte_backup:true);
  (* per-second series, as plotted in the figure *)
  Fmt.pr "@.per-second goodput (MB/s), default scheduler, LTE regular:@.";
  Fmt.pr "%6s %8s %8s@." "t" "wifi" "lte";
  List.iter
    (fun (t, rates) ->
      if Array.length rates >= 2 then
        Fmt.pr "%6.1f %8.2f %8.2f@." t (rates.(0) /. 1e6) (rates.(1) /. 1e6))
    regular.Figures.rates

(* ------------------------------------------------------------------ *)
(* Fig. 9 — runtime overhead of the execution backends                 *)
(* ------------------------------------------------------------------ *)

let overhead_env ~subflows ~packets =
  let env = Env.create () in
  for i = 0 to packets - 1 do
    Pqueue.push_back env.Env.q (Packet.create ~seq:i ~size:1448 ~now:0.0 ())
  done;
  let views =
    Array.init subflows (fun i ->
        {
          Subflow_view.default with
          Subflow_view.id = i;
          rtt_us = 10_000 + (10_000 * i);
          (* congestion-blocked: the scheduler does its full decision work
             but emits no action, so the environment is stable across
             measurement runs *)
          cwnd = 2;
          skbs_in_flight = 2;
        })
  in
  (env, views)

let backends_for src =
  let fresh name = Scheduler.of_source ~name src in
  let interp = fresh "interp" in
  let aot = fresh "aot" in
  Scheduler.set_engine aot "aot";
  let threaded = fresh "threaded" in
  Scheduler.set_engine threaded "threaded";
  let native = fresh "native" in
  Schedulers.Native.install native Schedulers.Native.default;
  let gen = fresh "generated" in
  Scheduler.install_custom gen ~name:"aot-source" Gen_default.engine;
  [ ("native (C analogue)", native); ("aot (generated source)", gen);
    ("interpreter", interp); ("aot (closure)", aot);
    ("threaded (closure chain)", threaded) ]

let bechamel_ns_per_run tests =
  let open Bechamel in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  List.concat_map
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let analyzed = Analyze.all ols instance results in
      Hashtbl.fold
        (fun name ols acc ->
          match Analyze.OLS.estimates ols with
          | Some (est :: _) -> (name, est) :: acc
          | Some [] | None -> (name, nan) :: acc)
        analyzed [])
    tests

let fig9 () =
  section "Fig. 9"
    "per-execution overhead of the runtime backends and achievable throughput"
    "relative execution time: native C < eBPF-JIT (~125%) < interpreter \
     (~144%); the total throughput remains unchanged across all backends";
  (* decision-path microbenchmark (Bechamel), 2 and 4 subflows *)
  List.iter
    (fun nsbf ->
      let tests =
        List.map
          (fun (label, sched) ->
            let env, views = overhead_env ~subflows:nsbf ~packets:64 in
            Bechamel.Test.make
              ~name:(Fmt.str "%d subflows / %s" nsbf label)
              (Bechamel.Staged.stage (fun () ->
                   Scheduler.execute sched env ~subflows:views)))
          (backends_for Schedulers.Specs.default)
      in
      let results = bechamel_ns_per_run tests in
      let native =
        try List.assoc (Fmt.str "%d subflows / native (C analogue)" nsbf) results
        with Not_found -> nan
      in
      Fmt.pr "@.decision path, %d subflows (default scheduler):@." nsbf;
      List.iter
        (fun (name, ns) ->
          Fmt.pr "  %-40s %8.0f ns/execution  (%3.0f%% of native)@." name ns
            (100.0 *. ns /. native))
        results)
    [ 2; 4 ];
  (* push path: manual loop over a prefilled queue (each execution pops
     and pushes one packet) *)
  Fmt.pr "@.push path (pop + push per execution):@.";
  let iters = 20_000 in
  let timings =
    List.map
      (fun (label, sched) ->
        let env, _ = overhead_env ~subflows:2 ~packets:iters in
        let views =
          Array.init 2 (fun i ->
              {
                Subflow_view.default with
                Subflow_view.id = i;
                rtt_us = 10_000 + (10_000 * i);
                cwnd = max_int / 2;
              })
        in
        let t0 = Unix.gettimeofday () in
        for _ = 1 to iters do
          ignore (Scheduler.execute sched env ~subflows:views)
        done;
        let t1 = Unix.gettimeofday () in
        (label, (t1 -. t0) /. float_of_int iters *. 1e9))
      (backends_for Schedulers.Specs.default)
  in
  let native = List.assoc "native (C analogue)" timings in
  List.iter
    (fun (name, ns) ->
      Fmt.pr "  %-40s %8.0f ns/execution  (%3.0f%% of native)@." name ns
        (100.0 *. ns /. native))
    timings;
  (* throughput is unchanged across backends *)
  Fmt.pr "@.simulated bulk throughput per engine (must be identical):@.";
  List.iter
    (fun engine ->
      match (Figures.bulk ~engine ~compressed:true).Figures.finished_at with
      | Some t ->
          Fmt.pr "  %-12s %7.2f Mbit/s (FCT %.3f s)@." engine
            (4_000_000.0 *. 8.0 /. (t -. 0.1) /. 1e6)
            t
      | None -> Fmt.pr "  %-12s incomplete@." engine)
    (Engine.names ());
  (* ablation: the two optimizations §4.1 calls out *)
  Fmt.pr "@.ablation — constant-subflow-count specialization (decision path):@.";
  let sched = Scheduler.of_source ~name:"spec-abl" Schedulers.Specs.default in
  let generic = Progmp_compiler.Compile.compile sched.Scheduler.program in
  let specialized =
    Progmp_compiler.Compile.compile ~subflow_count:2 sched.Scheduler.program
  in
  List.iter
    (fun (label, prog) ->
      let env, views = overhead_env ~subflows:2 ~packets:64 in
      let iters = 30_000 in
      let run = Progmp_compiler.Compile.engine prog in
      let t0 = Unix.gettimeofday () in
      for _ = 1 to iters do
        Env.begin_execution env ~subflows:views;
        run env;
        ignore (Env.finish_execution env)
      done;
      let ns = (Unix.gettimeofday () -. t0) /. float_of_int iters *. 1e9 in
      Fmt.pr "  %-36s %8.0f ns/execution (%d instrs)@." label ns
        (Progmp_compiler.Vm.size prog))
    [ ("generic bytecode", generic); ("specialized for 2 subflows", specialized) ];
  Fmt.pr "@.ablation — compressed executions (simulated bulk transfer):@.";
  List.iter
    (fun compressed ->
      let r = Figures.bulk ~engine:"interpreter" ~compressed in
      match r.Figures.finished_at with
      | Some t ->
          Fmt.pr "  compressed=%-5b %d scheduler executions, FCT %.3f s@."
            compressed r.Figures.executions t
      | None -> Fmt.pr "  compressed=%-5b incomplete@." compressed)
    [ true; false ];
  (* memory/size analogues of §4.1/§4.3 *)
  Fmt.pr "@.program footprints (cf. paper: scheduler 3048 B, instance 328 B):@.";
  Fmt.pr "  %-28s %8s %8s %8s@." "scheduler" "instrs" "stack" "slots";
  List.iter
    (fun (name, src) ->
      let p = Progmp_lang.Typecheck.compile_source src in
      let _, stats = Progmp_compiler.Compile.compile_with_stats p in
      Fmt.pr "  %-28s %8d %8d %8d@." name stats.Progmp_compiler.Compile.instrs
        stats.Progmp_compiler.Compile.spill_slots p.Progmp_lang.Tast.num_slots)
    Schedulers.Specs.all;
  (* up-call proxy (§4.1: netlink up-call 2.4 us vs in-kernel 0.2 us):
     the dominant up-call cost is crossing the boundary with a serialized
     environment; we measure execute vs serialize+execute *)
  Fmt.pr "@.userspace up-call proxy (serialize environment per decision):@.";
  let sched = Scheduler.of_source ~name:"upcall" Schedulers.Specs.default in
  let env, views = overhead_env ~subflows:2 ~packets:64 in
  let iters = 50_000 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    ignore (Scheduler.execute sched env ~subflows:views)
  done;
  let in_kernel = (Unix.gettimeofday () -. t0) /. float_of_int iters in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    let bytes = Marshal.to_bytes views [] in
    let (_ : Subflow_view.t array) = Marshal.from_bytes bytes 0 in
    ignore (Scheduler.execute sched env ~subflows:views)
  done;
  let upcall = (Unix.gettimeofday () -. t0) /. float_of_int iters in
  Fmt.pr
    "  in-runtime decision: %.2f us; with up-call serialization: %.2f us \
     (%.1fx)@."
    (in_kernel *. 1e6) (upcall *. 1e6)
    (upcall /. in_kernel)

(* ------------------------------------------------------------------ *)
(* engines — decisions/sec of every registered engine across the zoo   *)
(* ------------------------------------------------------------------ *)

(* [--smoke] shrinks the iteration counts so the whole experiment runs
   in well under a second; dune runtest uses it as an end-to-end check
   that every (scheduler, engine) pair still executes. *)
let smoke = ref false

(* [--mem-smoke] restricts the fleet ladder to its mid rung and asserts
   the measured heap bytes per live connection against the committed
   BENCH_fleet.json — the memory-footprint regression gate. *)
let mem_smoke = ref false

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  nn > 0 && at 0

(* The lines of a full-run record [file] in the cwd, or [None] when there
   is none (fresh checkout) or it holds a smoke record. *)
let full_record file =
  if not (Sys.file_exists file) then None
  else
    let ic = open_in file in
    let lines = In_channel.input_lines ic in
    close_in ic;
    if List.exists (fun l -> contains l "\"smoke\": true") lines then None
    else Some lines

(* Write a machine-readable record to [file] in the cwd. A smoke run
   never replaces a full-run record: the committed BENCH_*.json files
   are what the regression gate and --mem-smoke compare against. *)
let write_record ~smoke file write =
  if smoke && full_record file <> None then
    Fmt.pr "  %s holds a full run; smoke results not written@." file
  else begin
    let oc = open_out file in
    write oc;
    close_out oc;
    Fmt.pr "  machine-readable results written to %s@." file
  end

let engines_bench () =
  section "engines"
    "decision throughput of every registered engine across the scheduler zoo"
    "every engine is measured against the interpreter, the reference; aot \
     is the fastest compiled tier (Fig. 9 measures the default scheduler in \
     detail)";
  let iters = if !smoke then 2_000 else 20_000 in
  (* compiles are timed on fresh (uncached) programs, instantiations on
     the last one, whose code is then cached *)
  let compiles = if !smoke then 2 else 10 in
  let instances = if !smoke then 200 else 2_000 in
  Fmt.pr "%-28s %-14s %14s %16s %12s %12s %10s %10s@." "scheduler" "engine"
    "ns/decision" "decisions/sec" "mw/decision" "compile us" "inst us"
    "inst words";
  let results = ref [] and setup_costs = ref [] in
  List.iter
    (fun (name, src) ->
      List.iter
        (fun engine ->
          let fresh () =
            Progmp_lang.Optimize.program
              (Progmp_lang.Typecheck.compile_source src)
          in
          let compile_s = ref 0.0 and program = ref (fresh ()) in
          for i = 1 to compiles do
            if i > 1 then program := fresh ();
            let t0 = Unix.gettimeofday () in
            let (_ : Env.t -> unit) = Engine.instantiate engine !program in
            compile_s := !compile_s +. (Unix.gettimeofday () -. t0)
          done;
          let compile_us = !compile_s /. float_of_int compiles *. 1e6 in
          let mw0 = Gc.minor_words () in
          let t0 = Unix.gettimeofday () in
          for _ = 1 to instances do
            let (_ : Env.t -> unit) = Engine.instantiate engine !program in
            ()
          done;
          let instantiate_us =
            (Unix.gettimeofday () -. t0) /. float_of_int instances *. 1e6
          in
          let instantiate_words =
            (Gc.minor_words () -. mw0) /. float_of_int instances
          in
          setup_costs :=
            ((name, engine), (compile_us, instantiate_us)) :: !setup_costs;
          let sched = Scheduler.of_source ~name:(name ^ "@" ^ engine) src in
          Scheduler.set_engine sched engine;
          let env, views = overhead_env ~subflows:2 ~packets:64 in
          (* warm up (and fault early if the pair cannot execute) *)
          ignore (Scheduler.execute sched env ~subflows:views);
          (* Timed in equal batches, keeping the fastest: a smoke batch
             lasts well under a millisecond, so one host preemption on a
             shared box (e.g. while the rest of the test suite runs)
             inflates a single batch several-fold, and the minimum
             filters that purely additive noise where a mean keeps it. *)
          let batches = 10 in
          let batch = iters / batches in
          let best = ref infinity in
          let mw0 = Gc.minor_words () in
          for _ = 1 to batches do
            let t0 = Unix.gettimeofday () in
            for _ = 1 to batch do
              ignore (Scheduler.execute sched env ~subflows:views)
            done;
            best := Float.min !best (Unix.gettimeofday () -. t0)
          done;
          (* minor words per decision: the allocation the hot path pays;
             Gc.minor_words is monotonic and cheap, so measuring it does
             not perturb the timing loop *)
          let mw =
            (Gc.minor_words () -. mw0) /. float_of_int (batches * batch)
          in
          let ns = !best /. float_of_int batch *. 1e9 in
          let per_sec = 1e9 /. ns in
          results := ((name, engine), ns) :: !results;
          csv ~experiment:"engines"
            ~header:
              [ "scheduler"; "engine"; "ns_per_decision"; "decisions_per_sec";
                "minor_words_per_decision"; "compile_us"; "instantiate_us";
                "instantiate_words" ]
            [ name; engine; Fmt.str "%.1f" ns; Fmt.str "%.0f" per_sec;
              Fmt.str "%.1f" mw; Fmt.str "%.1f" compile_us;
              Fmt.str "%.3f" instantiate_us; Fmt.str "%.1f" instantiate_words ];
          Fmt.pr "%-28s %-14s %14.0f %16.0f %12.1f %12.1f %10.3f %10.1f@." name
            engine ns per_sec mw compile_us instantiate_us instantiate_words)
        (Engine.names ()))
    Schedulers.Specs.all;
  (* Compile once, instantiate cheaply: a slot's instance must cost a
     small fraction of the compile it no longer repeats. *)
  if !smoke then (
    match List.assoc_opt ("default", "threaded") !setup_costs with
    | Some (compile_us, instantiate_us)
      when instantiate_us > compile_us /. 20.0 ->
        Fmt.epr
          "engines: threaded instantiates default in %.3f us, more than 1/20 \
           of its %.1f us compile@."
          instantiate_us compile_us;
        exit 1
    | Some _ | None -> ());
  (* Each engine's speed relative to the interpreter (interpreter ns /
     engine ns, so > 1 is faster), per scheduler and as a geomean. Rows
     come from the interpreter column: every scheduler has one. *)
  let results = !results in
  let engines = Engine.names () in
  let rows =
    List.filter_map
      (fun (name, _) ->
        Option.map
          (fun interp ->
            ( name,
              interp,
              List.map
                (fun e -> (e, List.assoc (name, e) results))
                engines ))
          (List.assoc_opt (name, "interpreter") results))
      Schedulers.Specs.all
  in
  Fmt.pr "@.speed relative to the interpreter (interpreter ns / engine ns):@.";
  Fmt.pr "%-28s%a@." "scheduler"
    Fmt.(list ~sep:nop (fun ppf e -> pf ppf " %12s" e))
    engines;
  List.iter
    (fun (name, interp, per_engine) ->
      Fmt.pr "%-28s%a@." name
        Fmt.(list ~sep:nop (fun ppf (_, ns) -> pf ppf " %11.2fx" (interp /. ns)))
        per_engine)
    rows;
  let geomean e =
    let logs =
      List.map
        (fun (_, interp, per_engine) -> log (interp /. List.assoc e per_engine))
        rows
    in
    exp (List.fold_left ( +. ) 0.0 logs /. float_of_int (List.length logs))
  in
  if rows <> [] then
    Fmt.pr "%-28s%a@." "geomean"
      Fmt.(list ~sep:nop (fun ppf e -> pf ppf " %11.2fx" (geomean e)))
      engines;
  write_record ~smoke:!smoke "BENCH_engines.json" @@ fun oc ->
  (* The "engines" list names every backend this run measured; the
     regression gate diffs it against the committed baseline so a
     backend silently dropping out of the registry fails the build
     instead of vanishing from the comparison. *)
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"engines\",\n\
    \  \"cores\": %d,\n\
    \  \"iterations\": %d,\n\
    \  \"smoke\": %b,\n\
    \  \"engines\": [%s],\n\
    \  \"schedulers\": [\n"
    (Domain.recommended_domain_count ())
    iters !smoke
    (String.concat ", " (List.map (Printf.sprintf "%S") engines));
  (* one "<engine>_ns_per_decision" key per engine (the gate reads
     every column the "engines" list names) *)
  let last = List.length rows - 1 in
  List.iteri
    (fun i (name, _, per_engine) ->
      Printf.fprintf oc "    {\"scheduler\": %S%s}%s\n" name
        (String.concat ""
           (List.map
              (fun (e, ns) -> Printf.sprintf ", \"%s_ns_per_decision\": %.1f" e ns)
              per_engine))
        (if i = last then "" else ","))
    rows;
  Printf.fprintf oc "  ]\n}\n"

(* ------------------------------------------------------------------ *)
(* obs — overhead of the flight-recorder observability layer           *)
(* ------------------------------------------------------------------ *)

(* The tentpole claim the observability layer must keep: with tracing
   disabled the decision hot path is untouched (one ref deref + match),
   and even a full JSONL decision trace costs only the serialization.
   Measured as ns/decision on the default scheduler: baseline, with a
   null tracer installed, and with a JSONL trace written to /dev/null.
   Results also land in BENCH_obs.json (machine-readable). *)
let obs_bench () =
  section "obs"
    "decision-path cost of the flight recorder (disabled / null / jsonl)"
    "disabled tracing must be within noise of the baseline; a serializing \
     trace costs roughly one order of magnitude more than the decision";
  let iters = if !smoke then 200 else 200_000 in
  let sched = Scheduler.of_source ~name:"obs-bench" Schedulers.Specs.default in
  let measure label =
    let env, views = overhead_env ~subflows:2 ~packets:64 in
    ignore (Scheduler.execute sched env ~subflows:views);
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      ignore (Scheduler.execute sched env ~subflows:views)
    done;
    let ns = (Unix.gettimeofday () -. t0) /. float_of_int iters *. 1e9 in
    Fmt.pr "  %-28s %8.1f ns/decision@." label ns;
    (label, ns)
  in
  Scheduler.clear_tracer ();
  let baseline = measure "tracing disabled" in
  let traced = ref 0 in
  Scheduler.set_tracer (fun _ -> incr traced);
  let null = measure "null tracer" in
  let devnull = open_out "/dev/null" in
  let sink = Mptcp_obs.Trace.jsonl devnull in
  Scheduler.set_tracer (fun xr ->
      Mptcp_obs.Trace.emit sink ~time:0.0
        (Mptcp_obs.Trace.Sched_invoke
           {
             scheduler = xr.Scheduler.xr_scheduler;
             engine = xr.Scheduler.xr_engine;
             actions = List.length xr.Scheduler.xr_actions;
             regs_read = xr.Scheduler.xr_regs_read;
             regs_written = xr.Scheduler.xr_regs_written;
             q = Pqueue.length xr.Scheduler.xr_env.Env.q;
             qu = Pqueue.length xr.Scheduler.xr_env.Env.qu;
             rq = Pqueue.length xr.Scheduler.xr_env.Env.rq;
           }));
  let jsonl = measure "jsonl trace to /dev/null" in
  Scheduler.clear_tracer ();
  close_out devnull;
  let pct (_, ns) = 100.0 *. ns /. snd baseline in
  Fmt.pr "  null tracer %.1f%% of baseline, jsonl %.1f%% of baseline (%d \
          executions traced)@."
    (pct null) (pct jsonl) !traced;
  write_record ~smoke:!smoke "BENCH_obs.json" @@ fun oc ->
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"obs\",\n\
    \  \"cores\": %d,\n\
    \  \"smoke\": %b,\n\
    \  \"scheduler\": \"default\",\n\
    \  \"iterations\": %d,\n\
    \  \"ns_per_decision\": {\n\
    \    \"tracing_disabled\": %.1f,\n\
    \    \"null_tracer\": %.1f,\n\
    \    \"jsonl_to_devnull\": %.1f\n\
    \  },\n\
    \  \"overhead_pct_vs_disabled\": {\n\
    \    \"null_tracer\": %.1f,\n\
    \    \"jsonl_to_devnull\": %.1f\n\
    \  }\n\
     }\n"
    (Domain.recommended_domain_count ())
    !smoke iters (snd baseline) (snd null) (snd jsonl)
    (pct null -. 100.0) (pct jsonl -. 100.0)

(* ------------------------------------------------------------------ *)
(* sweep — throughput and scaling of the parallel campaign engine      *)
(* ------------------------------------------------------------------ *)

(* A fixed 32-run campaign executed at jobs ∈ {1, 2, 4, 8}: wall time,
   runs/sec, speedup vs the serial run, and — the contract that actually
   matters — an [equal_report] check that every parallel report is
   structurally identical to the serial one. Results land in
   BENCH_sweep.json together with the machine's core count: on a 1-core
   box the domains time-slice one CPU, so speedup ≈ 1.0 is the honest
   expected reading there, not a regression. *)
let sweep_bench () =
  section "sweep"
    "campaign-engine scaling: one 32-run grid at 1/2/4/8 worker domains"
    "runs/sec scales with the worker count up to the physical core count \
     while every report stays equal_report-identical to the serial one";
  let open Mptcp_exp in
  let spec =
    {
      Spec.default with
      Spec.scenarios = [ "bulk" ];
      schedulers = [ "default"; "redundant_if_no_q" ];
      engines = [ "interpreter" ];
      losses = [ 0.0; 0.02 ];
      seeds = List.init (if !smoke then 2 else 8) (fun i -> i + 1);
      duration = (if !smoke then 1.0 else 3.0);
    }
  in
  let jobs_list = if !smoke then [ 1; 2 ] else [ 1; 2; 4; 8 ] in
  let cores = Domain.recommended_domain_count () in
  let n_runs = Spec.run_count spec in
  Fmt.pr "%d runs, %d recommended domain(s) on this machine@.@." n_runs cores;
  Fmt.pr "%6s %10s %12s %10s %12s@." "jobs" "wall(s)" "runs/sec" "speedup"
    "identical";
  let baseline = ref None in
  let series =
    List.map
      (fun jobs ->
        let t0 = Unix.gettimeofday () in
        match Sweep.execute ~force_jobs:true ~jobs spec with
        | Error msg ->
            Fmt.epr "sweep benchmark failed at jobs=%d: %s@." jobs msg;
            exit 2
        | Ok report ->
            let wall = Unix.gettimeofday () -. t0 in
            let rps = float_of_int n_runs /. wall in
            let serial_wall, identical =
              match !baseline with
              | None ->
                  baseline := Some (wall, report);
                  (wall, true)
              | Some (w, serial) -> (w, Sweep.equal_report serial report)
            in
            if not identical then begin
              Fmt.epr
                "sweep benchmark: report at jobs=%d differs from jobs=1@." jobs;
              exit 2
            end;
            let speedup = serial_wall /. wall in
            csv ~experiment:"sweep"
              ~header:[ "jobs"; "wall_s"; "runs_per_sec"; "speedup" ]
              [ string_of_int jobs; Fmt.str "%.3f" wall; Fmt.str "%.2f" rps;
                Fmt.str "%.2f" speedup ];
            Fmt.pr "%6d %10.3f %12.2f %10.2f %12b@." jobs wall rps speedup
              identical;
            (jobs, wall, rps, speedup))
      jobs_list
  in
  write_record ~smoke:!smoke "BENCH_sweep.json" @@ fun oc ->
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"sweep\",\n\
    \  \"cores\": %d,\n\
    \  \"smoke\": %b,\n\
    \  \"runs\": %d,\n\
    \  \"grid\": \"bulk x {default, redundant_if_no_q} x interpreter x loss \
     {0.0, 0.02} x %d seeds, %.1f s each\",\n\
    \  \"reports_identical_across_jobs\": true,\n\
    \  \"series\": [\n"
    cores !smoke n_runs (List.length spec.Spec.seeds) spec.Spec.duration;
  List.iteri
    (fun i (jobs, wall, rps, speedup) ->
      Printf.fprintf oc
        "    { \"jobs\": %d, \"wall_s\": %.3f, \"runs_per_sec\": %.2f, \
         \"speedup_vs_serial\": %.2f }%s\n"
        jobs wall rps speedup
        (if i = List.length series - 1 then "" else ","))
    series;
  Printf.fprintf oc "  ]\n}\n"

(* ------------------------------------------------------------------ *)
(* fleet — hosting capacity of the single-process fleet simulator      *)
(* ------------------------------------------------------------------ *)

(* A scale ladder of open-loop overload runs: each rung offers Poisson
   arrivals slightly above the fleet's aggregate service capacity, so
   the live connection count climbs to (not wildly past) the rung's
   target while completed flows keep recycling slots. Recorded per
   rung: arrivals, completions, peak concurrency, scheduler decisions
   per wall second, and resident heap bytes per live connection (the
   marginal hosting cost). The full ladder must demonstrate >= 1M
   concurrent connections and >= 1M total arrivals in one process;
   results land in BENCH_fleet.json for the regression gate. *)

type fleet_rung = {
  fr_target : int;  (** intended peak concurrency *)
  fr_groups : int;
  fr_rate : float;  (** global arrivals/s: mu_eff * groups + surplus *)
  fr_duration : float;
  fr_shards : int;  (** OCaml domains (share-nothing group shards) *)
  fr_thin : bool;  (** thin-access links ({!Sweep.fleet_thin_paths}) *)
}

(* Rates are sized as [mu_eff * groups + surplus] with the surplus
   chosen so the live gauge climbs to the rung's target by the end of
   the run: mu_eff is the measured effective per-group completion rate
   once a group is overloaded (~165-177 flows/s on the standard
   2 x 1.25 MB/s topology, ~0.3-0.8 on the thin one), and the rate
   must also clear the pre-collapse capacity (~230/group standard) or
   the queue never builds. Calibrated so peak_live lands within 2x of
   target instead of drifting with whatever the overload surplus
   happens to be. The million rung switches to thin access links
   (edge-box subscribers) and shards across 4 domains. *)
let fleet_ladder =
  [
    { fr_target = 1_000; fr_groups = 2; fr_rate = 500.0; fr_duration = 10.0;
      fr_shards = 1; fr_thin = false };
    { fr_target = 10_000; fr_groups = 16; fr_rate = 3_600.0;
      fr_duration = 15.0; fr_shards = 1; fr_thin = false };
    { fr_target = 100_000; fr_groups = 128; fr_rate = 30_000.0;
      fr_duration = 18.0; fr_shards = 1; fr_thin = false };
    { fr_target = 1_000_000; fr_groups = 8_192; fr_rate = 120_000.0;
      fr_duration = 10.0; fr_shards = 4; fr_thin = true };
  ]

(* The committed baseline's bytes-per-connection for the rung with
   [target], or [None] when no comparable full-run baseline exists in
   the cwd (fresh checkout, smoke baseline, rung set changed). *)
let baseline_bytes_per_conn ~target =
  match full_record "BENCH_fleet.json" with
  | None -> None
  | Some lines ->
      let key = Fmt.str "\"target\": %d," target in
      List.find_map
        (fun line ->
          if not (contains line key) then None
          else
            let tag = "\"bytes_per_conn\": " in
            let taglen = String.length tag in
            let rec find i =
              if i + taglen > String.length line then None
              else if String.sub line i taglen = tag then
                let j = ref (i + taglen) in
                while
                  !j < String.length line
                  && (match line.[!j] with '0' .. '9' | '.' -> true | _ -> false)
                do
                  incr j
                done;
                float_of_string_opt (String.sub line (i + taglen) (!j - i - taglen))
              else find (i + 1)
            in
            find 0)
        lines

let fleet_bench () =
  section "fleet"
    "single-process hosting capacity: open-loop arrivals over shared links"
    "live connections climb to each rung's target under overload while \
     slots recycle through the fleet arenas; decisions/sec stays flat \
     across rungs (per-connection cost does not grow with fleet size) and \
     heap bytes per live connection stay bounded";
  let open Mptcp_exp in
  load_zoo ();
  let sched =
    match Scheduler.find "default" with Some s -> s | None -> assert false
  in
  (* hosting at fleet scale is memory-bound: run under the tighter heap
     policy a production deployment would use (major GC keeps slack at
     ~0.3x live data instead of the default 1.2x), trading some GC time
     for a heap that tracks the live population *)
  let gc0 = Gc.get () in
  Gc.set { gc0 with Gc.space_overhead = 30 };
  let rungs =
    if !smoke then
      [ { fr_target = 100; fr_groups = 2; fr_rate = 200.0; fr_duration = 3.0;
          fr_shards = 1; fr_thin = false } ]
    else if !mem_smoke then [ List.nth fleet_ladder 1 ]
    else fleet_ladder
  in
  Fmt.pr "%9s %7s %9s %6s %7s %9s %9s %9s %8s %12s %10s %7s@." "target"
    "groups" "rate/s" "dur" "shards" "arrivals" "completed" "peak" "slots"
    "decis/wall-s" "B/conn" "compl";
  let mem_baseline =
    if !mem_smoke then
      baseline_bytes_per_conn ~target:(List.nth fleet_ladder 1).fr_target
    else None
  in
  let results =
    List.map
      (fun r ->
        Gc.compact ();
        (* marginal accounting: the footprint charged to a rung is its
           peak heap minus the live base standing before it (engine,
           scheduler zoo, earlier rungs' stats) — otherwise the reading
           depends on where the rung sits in the ladder *)
        let base_words = (Gc.quick_stat ()).Gc.live_words in
        let t0 = Unix.gettimeofday () in
        let shards =
          Fleet_run.run ~seed:42 ~loss:0.0
            ~scheduler:(sched, "interpreter")
            ~cc:Congestion.Lia ~duration:r.fr_duration ~groups:r.fr_groups
            ~shards:r.fr_shards
            ~paths:
              ((if r.fr_thin then Sweep.fleet_thin_paths
                else Sweep.fleet_group_paths)
                 ~loss:0.0)
            ~rate:(fun _ -> r.fr_rate)
            ~dist:Traffic.default_pareto ()
        in
        let wall = Unix.gettimeofday () -. t0 in
        let tot = Fleet_run.merged_totals shards in
        let slots = Fleet_run.slot_count shards in
        let heap_words =
          max 1 ((Gc.quick_stat ()).Gc.top_heap_words - base_words)
        in
        let decisions_per_sec = float_of_int tot.Fleet.t_executions /. wall in
        let bytes_per_conn =
          float_of_int (heap_words * (Sys.word_size / 8))
          /. float_of_int (max 1 tot.Fleet.t_peak_live)
        in
        (* overload-shaped rungs complete only a sliver of their
           arrivals (the 1M rung finishes ~2%); record the ratio so the
           regression gate can flag rungs whose throughput numbers
           describe mostly-unfinished work *)
        let completion_ratio =
          float_of_int tot.Fleet.t_completed
          /. float_of_int (max 1 tot.Fleet.t_arrivals)
        in
        let overload = tot.Fleet.t_peak_live > 2 * r.fr_target in
        Fmt.pr "%9d %7d %9.0f %6.0f %7d %9d %9d %9d %8d %12.0f %10.0f %6.1f%%%s@."
          r.fr_target r.fr_groups r.fr_rate r.fr_duration r.fr_shards
          tot.Fleet.t_arrivals tot.Fleet.t_completed tot.Fleet.t_peak_live
          slots decisions_per_sec bytes_per_conn
          (100.0 *. completion_ratio)
          (if overload then "  OVERLOAD" else "");
        csv ~experiment:"fleet"
          ~header:
            [ "target"; "groups"; "rate"; "duration_s"; "shards"; "arrivals";
              "completed"; "completion_ratio"; "peak_live"; "overload";
              "slots"; "decisions_per_sec"; "bytes_per_conn"; "wall_s" ]
          [ string_of_int r.fr_target; string_of_int r.fr_groups;
            Fmt.str "%.0f" r.fr_rate; Fmt.str "%.0f" r.fr_duration;
            string_of_int r.fr_shards; string_of_int tot.Fleet.t_arrivals;
            string_of_int tot.Fleet.t_completed;
            Fmt.str "%.4f" completion_ratio;
            string_of_int tot.Fleet.t_peak_live; string_of_bool overload;
            string_of_int slots; Fmt.str "%.0f" decisions_per_sec;
            Fmt.str "%.0f" bytes_per_conn; Fmt.str "%.2f" wall ];
        (r, tot, slots, overload, decisions_per_sec, bytes_per_conn, wall,
         heap_words))
      rungs
  in
  (* the ladder's headline claims, asserted so a capacity regression
     fails the bench loudly instead of shipping a smaller number *)
  (if (not !smoke) && not !mem_smoke then
     let _, top_tot, _, _, _, _, _, _ =
       List.nth results (List.length results - 1)
     in
     if top_tot.Fleet.t_peak_live < 1_000_000 then begin
       Fmt.epr "fleet bench: peak concurrency %d < 1000000@."
         top_tot.Fleet.t_peak_live;
       exit 2
     end
     else if top_tot.Fleet.t_arrivals < 1_000_000 then begin
       Fmt.epr "fleet bench: total arrivals %d < 1000000@."
         top_tot.Fleet.t_arrivals;
       exit 2
     end);
  (* --mem-smoke: the memory-footprint gate proper — the fresh mid
     rung's marginal hosting cost must stay within 1.25x of the
     committed baseline's *)
  (if !mem_smoke then
     match (results, mem_baseline) with
     | [ (_, _, _, _, _, fresh_bpc, _, _) ], Some base_bpc
       when base_bpc > 0.0 ->
         let ratio = fresh_bpc /. base_bpc in
         Fmt.pr
           "  mem-smoke: %.0f B/conn vs committed baseline %.0f (%.2fx, cap \
            1.25x)@."
           fresh_bpc base_bpc ratio;
         if ratio > 1.25 then begin
           Fmt.epr
             "fleet bench: bytes per connection regressed: %.0f vs baseline \
              %.0f (> 1.25x)@."
             fresh_bpc base_bpc;
           exit 2
         end
     | _ ->
         Fmt.pr
           "  mem-smoke: no comparable committed BENCH_fleet.json rung; \
            footprint measured but not gated@.");
  Gc.set gc0;
  write_record ~smoke:(!smoke || !mem_smoke) "BENCH_fleet.json" @@ fun oc ->
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"fleet\",\n\
    \  \"cores\": %d,\n\
    \  \"smoke\": %b,\n\
    \  \"rungs\": [\n"
    (Domain.recommended_domain_count ())
    (!smoke || !mem_smoke);
  let last = List.length results - 1 in
  List.iteri
    (fun i (r, tot, slots, overload, dps, bpc, wall, heap_words) ->
      Printf.fprintf oc
        "    { \"target\": %d, \"groups\": %d, \"rate\": %.0f, \
         \"duration_s\": %.0f, \"shards\": %d, \"arrivals\": %d, \
         \"completed\": %d, \"completion_ratio\": %.4f, \"peak_live\": %d, \
         \"overload\": %b, \
         \"slots\": %d, \"decisions\": %d, \"decisions_per_sec\": %.0f, \
         \"bytes_per_conn\": %.0f, \"wall_s\": %.2f, \"heap_words_over_base\": %d \
         }%s\n"
        r.fr_target r.fr_groups r.fr_rate r.fr_duration r.fr_shards
        tot.Fleet.t_arrivals tot.Fleet.t_completed
        (float_of_int tot.Fleet.t_completed
        /. float_of_int (max 1 tot.Fleet.t_arrivals))
        tot.Fleet.t_peak_live overload slots tot.Fleet.t_executions dps bpc
        wall heap_words
        (if i = last then "" else ","))
    results;
  Printf.fprintf oc "  ]\n}\n"

(* ------------------------------------------------------------------ *)
(* eventq — event-core microbenchmark: the hierarchical timing wheel  *)
(* ------------------------------------------------------------------ *)

(* Isolated cost of the event core itself, outside any protocol logic:
   post, drain, timer cancel, timer re-arm and steady-state churn, each
   against 1k / 100k / 1M pending events. Delays are exponential around
   a link-delay scale — the distribution the fleet's transmit and RTO
   events actually produce. Each row is timed on a compacted heap, so
   no row depends on the garbage the rows before it left behind.
   Results land in BENCH_eventq.json for the regression gate. *)

let eventq_bench () =
  section "eventq"
    "event-core microbenchmark: schedule/drain/cancel/re-arm/churn at 1k, \
     100k and 1M pending events on the hierarchical timing wheel"
    "schedule, cancel and re-arm ns/op stay flat as pending events grow \
     1000x (O(1) buckets)";
  let pendings =
    if !smoke then [ 1_000 ] else [ 1_000; 100_000; 1_000_000 ]
  in
  let rearm_iters = if !smoke then 10_000 else 200_000 in
  let mean_delay = 0.01 in
  let draw seed k =
    let rng = Rng.create seed in
    Array.init k (fun _ -> Rng.exponential rng ~mean:mean_delay)
  in
  (* Each workload builds its untimed set-up and returns the timed part,
     which reports its operation count. *)
  let workloads ~n =
    let d = draw (31 + n) n in
    [
      (* schedule: n posts into an empty queue *)
      ( "schedule",
        fun () ->
          let q = Eventq.create () in
          fun () ->
            for i = 0 to n - 1 do
              Eventq.post_in q ~delay:d.(i) ignore
            done;
            n );
      (* drain: batched execution of n pending posts *)
      ( "drain",
        fun () ->
          let q = Eventq.create () in
          Array.iter (fun delay -> Eventq.post_in q ~delay ignore) d;
          fun () -> Eventq.run q );
      (* cancel: n armed timers, each physically removed *)
      ( "cancel",
        fun () ->
          let q = Eventq.create () in
          let timers =
            Array.map
              (fun delay ->
                let tm = Eventq.timer q ignore in
                Eventq.timer_arm_in tm ~delay;
                tm)
              d
          in
          fun () ->
            for i = 0 to n - 1 do
              Eventq.timer_cancel timers.(i)
            done;
            n );
      (* re-arm: the RTO hot path — one timer re-armed over and over,
         writing its cell in place, with n pending bystanders *)
      ( "re-arm",
        fun () ->
          let q = Eventq.create () in
          Array.iter (fun delay -> Eventq.post q ~at:(1e6 +. delay) ignore) d;
          let rd = draw (57 + n) rearm_iters in
          let tm = Eventq.timer q ignore in
          fun () ->
            for i = 0 to rearm_iters - 1 do
              Eventq.timer_arm_in tm ~delay:rd.(i)
            done;
            rearm_iters );
      (* churn: hold-model steady state — n self-rescheduling events,
         each execution posting its successor with its pre-built
         closure on the cell the fired event gave back, ~3n executions
         in total: the interleaved pop/insert mix of the fleet's event
         loop *)
      ( "churn",
        fun () ->
          let q = Eventq.create () in
          let rng = Rng.create (73 + n) in
          let remaining = ref (2 * n) in
          for _ = 1 to n do
            let rec act () =
              if !remaining > 0 then begin
                decr remaining;
                Eventq.post_in q
                  ~delay:(Rng.exponential rng ~mean:mean_delay)
                  act
              end
            in
            Eventq.post_in q ~delay:(Rng.exponential rng ~mean:mean_delay) act
          done;
          fun () -> Eventq.run q );
    ]
  in
  (* A pass times windows as short as ~40 µs (schedule @ 1k), where a
     single host preemption on a shared box shows up as a several-x
     spike. The workloads are deterministic, so repeating one is
     identical work: take each row's minimum over a few passes — min
     filters purely-additive scheduling noise that a mean would keep. *)
  let reps = if !smoke then 5 else 3 in
  let measure setup =
    let best = ref infinity in
    for _ = 1 to reps do
      let timed = setup () in
      Gc.compact ();
      let t0 = Unix.gettimeofday () in
      let ops = timed () in
      let wall = Unix.gettimeofday () -. t0 in
      let ns = wall *. 1e9 /. float_of_int (max 1 ops) in
      best := Float.min !best ns
    done;
    !best
  in
  Fmt.pr "%-9s %9s %12s@." "workload" "pending" "wheel ns/op";
  let rows =
    List.concat_map
      (fun n ->
        List.map
          (fun (w, setup) ->
            let ns = measure setup in
            Fmt.pr "%-9s %9d %12.1f@." w n ns;
            csv ~experiment:"eventq"
              ~header:[ "workload"; "pending"; "wheel_ns_per_op" ]
              [ w; string_of_int n; Fmt.str "%.1f" ns ];
            (w, n, ns))
          (workloads ~n))
      pendings
  in
  write_record ~smoke:!smoke "BENCH_eventq.json" @@ fun oc ->
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"eventq\",\n\
    \  \"cores\": %d,\n\
    \  \"smoke\": %b,\n\
    \  \"rows\": [\n"
    (Domain.recommended_domain_count ())
    !smoke;
  let last = List.length rows - 1 in
  List.iteri
    (fun i (w, n, ns) ->
      Printf.fprintf oc
        "    { \"workload\": \"%s\", \"pending\": %d, \"wheel_ns_per_op\": \
         %.1f }%s\n"
        w n ns
        (if i = last then "" else ","))
    rows;
  Printf.fprintf oc "  ]\n}\n"

(* ------------------------------------------------------------------ *)
(* snapshot — the per-decision subflow snapshot                        *)
(* ------------------------------------------------------------------ *)

(* [Meta_socket.snapshot] on [Figures.snapshot_world] (2 subflows, one
   second into a 4 MB transfer over 2%-loss paths), timed with the
   default scheduler's read set and again with every field (a custom
   decision function's set). The connection is frozen: no event
   runs between snapshots, so every call refills the same views. *)
let snapshot_bench () =
  section "snapshot"
    "ns and minor words per Meta_socket.snapshot, 2 subflows mid-transfer"
    "filling only the fields the scheduler reads costs less than filling \
     every field; neither allocates";
  let iters = if !smoke then 20_000 else 5_000_000 in
  let conn = Figures.snapshot_world () in
  let meta = conn.Connection.meta in
  let sched = (Connection.sock conn).Api.scheduler in
  let views = Array.length (Meta_socket.snapshot meta) in
  if views <> 2 then begin
    Fmt.epr "snapshot: %d established subflows at 1 s, expected 2@." views;
    exit 1
  end;
  let measure label =
    ignore (Meta_socket.snapshot meta);
    let words0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      ignore (Sys.opaque_identity (Meta_socket.snapshot meta))
    done;
    let ns = (Unix.gettimeofday () -. t0) /. float_of_int iters *. 1e9 in
    let words = (Gc.minor_words () -. words0) /. float_of_int iters in
    Fmt.pr "  %-32s %7.1f ns/snapshot %6.3f minor words/snapshot@." label ns
      words;
    csv ~experiment:"snapshot" ~header:[ "read_set"; "ns"; "minor_words" ]
      [ label; Fmt.str "%.1f" ns; Fmt.str "%.3f" words ];
    words
  in
  let fields reads =
    let rec count n r = if r = 0 then n else count (n + (r land 1)) (r lsr 1) in
    count 0 reads
  in
  let w_default =
    measure
      (Fmt.str "default's set (%d fields)" (fields sched.Scheduler.reads))
  in
  Scheduler.install_custom sched ~name:"every-field" sched.Scheduler.run;
  let w_all =
    measure (Fmt.str "every field (%d)" (fields sched.Scheduler.reads))
  in
  (* a snapshot allocates at least one word when it allocates at all *)
  if w_default >= 0.5 || w_all >= 0.5 then begin
    Fmt.epr "snapshot: a snapshot allocates (%.3f / %.3f minor words)@."
      w_default w_all;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Fig. 10b — FCT vs flow size for the redundancy family               *)
(* ------------------------------------------------------------------ *)

let redundancy_schedulers =
  [ "default"; "redundant"; "opportunistic_redundant"; "redundant_if_no_q" ]

let fig10b () =
  section "Fig. 10b"
    "mean flow completion time vs flow size (2 subflows, 2% loss)"
    "all redundant schedulers beat the default for small flows; \
     OpportunisticRedundant overtakes the existing redundant scheduler as \
     flows grow; RedundantIfNoQ is best overall";
  Fmt.pr "%-10s" "size(kB)";
  List.iter (fun s -> Fmt.pr " %25s" s) redundancy_schedulers;
  Fmt.pr "@.";
  List.iter
    (fun size ->
      Fmt.pr "%-10d" (size / 1000);
      List.iter
        (fun scheduler ->
          let { Figures.fct; completed; _ } =
            Figures.redundancy_flows ~scheduler ~size
          in
          csv ~experiment:"fig10b"
            ~header:[ "size_bytes"; "scheduler"; "mean_fct_ms"; "completed" ]
            [ string_of_int size; scheduler; Fmt.str "%.3f" (fct *. 1e3);
              string_of_int completed ];
          Fmt.pr " %15.1f ms (%2d/10)" (fct *. 1e3) completed)
        redundancy_schedulers;
      Fmt.pr "@.")
    [ 5_000; 15_000; 50_000; 150_000; 400_000 ]

(* ------------------------------------------------------------------ *)
(* Fig. 10c — throughput normalized to single-path TCP                 *)
(* ------------------------------------------------------------------ *)

let fig10c () =
  section "Fig. 10c"
    "maximum achievable throughput, normalized to single-path TCP"
    "the existing redundant scheduler is pinned near 1x; for bulk (iPerf) \
     both new schedulers provide nearly the maximum achievable throughput; \
     bursty traffic reduces their advantage";
  let single ~bursty =
    Figures.window_throughput ~single_path:true ~scheduler:"default" ~bursty
  in
  let base_bulk = single ~bursty:false in
  let base_bursty = single ~bursty:true in
  Fmt.pr "single-path TCP baseline: bulk %.2f MB/s, bursty %.2f MB/s@.@."
    (base_bulk /. 1e6) (base_bursty /. 1e6);
  Fmt.pr "%-26s %14s %14s@." "scheduler" "iperf (norm.)" "bursty (norm.)";
  List.iter
    (fun scheduler ->
      let measure = Figures.window_throughput ~single_path:false ~scheduler in
      let bulk = measure ~bursty:false in
      let bursty = measure ~bursty:true in
      Fmt.pr "%-26s %14.2f %14.2f@." scheduler (bulk /. base_bulk)
        (bursty /. base_bursty))
    redundancy_schedulers

(* ------------------------------------------------------------------ *)
(* Fig. 12 — compensating the end of short flows                       *)
(* ------------------------------------------------------------------ *)

(* mean FCT (ms) and wire overhead of a fully completed measurement *)
let fct_ms_overhead (r : Figures.flows) =
  assert (r.Figures.completed = r.Figures.reps);
  (r.Figures.fct *. 1e3, r.Figures.overhead)

let fig12_measure ~scheduler ~rtt_ratio ~signal_end =
  fct_ms_overhead (Figures.short_flows ~scheduler ~rtt_ratio ~signal_end)

let fig12 () =
  section "Fig. 12"
    "short-flow FCT and overhead vs subflow RTT ratio (end of flow signaled)"
    "the default FCT rises with the RTT ratio; the Compensating scheduler \
     retains it at the cost of retransmission overhead that decreases for \
     higher ratios; Selective Compensation (ratio > 2) pays the overhead \
     only where it helps";
  Fmt.pr "%-10s %22s %26s %26s@." "RTT ratio" "default" "compensating"
    "selective compensation";
  List.iter
    (fun rtt_ratio ->
      let d_fct, d_w =
        fig12_measure ~scheduler:"default" ~rtt_ratio ~signal_end:false
      in
      let c_fct, c_w =
        fig12_measure ~scheduler:"compensating" ~rtt_ratio ~signal_end:true
      in
      let s_fct, s_w =
        fig12_measure ~scheduler:"selective_compensation" ~rtt_ratio
          ~signal_end:true
      in
      List.iter
        (fun (sched, fct, w) ->
          csv ~experiment:"fig12"
            ~header:[ "rtt_ratio"; "scheduler"; "mean_fct_ms"; "overhead" ]
            [ Fmt.str "%.1f" rtt_ratio; sched; Fmt.str "%.3f" fct;
              Fmt.str "%.3f" w ])
        [ ("default", d_fct, d_w); ("compensating", c_fct, c_w);
          ("selective_compensation", s_fct, s_w) ];
      Fmt.pr "%-10.1f %13.1f ms (%.2fx) %17.1f ms (%.2fx) %17.1f ms (%.2fx)@."
        rtt_ratio d_fct d_w c_fct c_w s_fct s_w)
    [ 1.0; 1.5; 2.0; 3.0; 4.0; 6.0; 8.0 ]

(* ------------------------------------------------------------------ *)
(* ablation: which packet to retransmit when compensating              *)
(* ------------------------------------------------------------------ *)

let ablate_compensate () =
  section "Ablation (§5.3)"
    "choice of the retransmitted packet in the Compensating scheduler"
    "retransmitting the oldest vs the newest unsent in-flight packet has \
     only minor impact on the FCT";
  Fmt.pr "%-10s %22s %22s@." "RTT ratio" "oldest-first" "newest-first";
  List.iter
    (fun rtt_ratio ->
      let fct newest =
        fst (fct_ms_overhead (Figures.compensate_flows ~newest ~rtt_ratio))
      in
      let o_fct = fct false in
      let n_fct = fct true in
      Fmt.pr "%-10.1f %19.1f ms %19.1f ms@." rtt_ratio o_fct n_fct)
    [ 2.0; 4.0; 8.0 ]

(* ------------------------------------------------------------------ *)
(* Fig. 13 — TAP: throughput- and preference-aware streaming           *)
(* ------------------------------------------------------------------ *)

let fig13 () =
  section "Fig. 13"
    "preference-aware streaming: default vs backup mode vs TAP"
    "TAP sustains the signaled target rate like the default scheduler while \
     reducing the non-preferred LTE usage to the capacity deficit; backup \
     mode cannot sustain the 4 MB/s phase";
  ignore
    (run_stream "default (LTE regular)" ~scheduler:"default" ~lte_backup:false);
  ignore
    (run_stream "default (LTE backup)" ~scheduler:"default" ~lte_backup:true);
  let tap = run_stream "TAP (target in R1)" ~scheduler:"tap" ~lte_backup:true in
  (* the per-second usage series TAP is judged on *)
  Fmt.pr "@.per-second goodput (MB/s), TAP:@.";
  Fmt.pr "%6s %8s %8s %8s@." "t" "wifi" "lte" "target";
  List.iter
    (fun (t, rates) ->
      if Array.length rates >= 2 then begin
        csv ~experiment:"fig13"
          ~header:[ "t"; "wifi_mbps"; "lte_mbps"; "target_mbps" ]
          [ Fmt.str "%.1f" t; Fmt.str "%.3f" (rates.(0) /. 1e6);
            Fmt.str "%.3f" (rates.(1) /. 1e6);
            Fmt.str "%.1f" (if t <= 6.5 then 1.0 else 4.0) ];
        Fmt.pr "%6.1f %8.2f %8.2f %8.2f@." t (rates.(0) /. 1e6)
          (rates.(1) /. 1e6)
          (if t <= 6.5 then 1.0 else 4.0)
      end)
    tap.Figures.rates

(* ------------------------------------------------------------------ *)
(* Fig. 14 — HTTP/2-aware scheduling                                   *)
(* ------------------------------------------------------------------ *)

let fig14 () =
  section "Fig. 14"
    "HTTP/2-aware scheduling of an optimized page over WiFi + metered LTE"
    "the HTTP/2-aware scheduler keeps the dependency-retrieval time low and \
     flat as the WiFi RTT grows, and sharply reduces the bytes on the \
     metered LTE subflow, without hurting the full load time";
  Fmt.pr "%-10s | %28s | %28s@." "" "default" "http2-aware";
  Fmt.pr "%-10s | %9s %9s %8s | %9s %9s %8s@." "rtt ratio" "dep(ms)"
    "load(ms)" "lte(kB)" "dep(ms)" "load(ms)" "lte(kB)";
  List.iter
    (fun extra ->
      let load scheduler =
        Figures.page_load ~scheduler ~wifi_extra_delay:extra
      in
      let d = load "default" in
      let h = load "http2_aware" in
      List.iter
        (fun (sched, (r : Apps.Http2.load_result)) ->
          csv ~experiment:"fig14"
            ~header:
              [ "rtt_ratio"; "scheduler"; "dependency_ms"; "full_load_ms";
                "lte_bytes" ]
            [ Fmt.str "%.2f" ((0.005 +. extra) /. 0.020); sched;
              Fmt.str "%.3f" (r.Apps.Http2.dependency_time *. 1e3);
              Fmt.str "%.3f" (r.Apps.Http2.full_load_time *. 1e3);
              string_of_int r.Apps.Http2.lte_bytes ])
        [ ("default", d); ("http2_aware", h) ];
      Fmt.pr "%-10.2f | %9.1f %9.1f %8.1f | %9.1f %9.1f %8.1f@."
        ((0.005 +. extra) /. 0.020)
        (d.Apps.Http2.dependency_time *. 1e3)
        (d.Apps.Http2.full_load_time *. 1e3)
        (float_of_int d.Apps.Http2.lte_bytes /. 1e3)
        (h.Apps.Http2.dependency_time *. 1e3)
        (h.Apps.Http2.full_load_time *. 1e3)
        (float_of_int h.Apps.Http2.lte_bytes /. 1e3))
    [ 0.0; 0.005; 0.015; 0.035; 0.055 ]

(* ------------------------------------------------------------------ *)
(* §5.2 — handover-aware scheduling                                    *)
(* ------------------------------------------------------------------ *)

let handover () =
  section "§5.2"
    "WiFi -> LTE handover during a stream (WiFi dies at t = 1.0 s)"
    "a handover-aware scheduler that aggressively retransmits the dying \
     subflow's in-flight packets on the new subflow shortens the delivery \
     gap the handover causes";
  List.iter
    (fun scheduler ->
      let gap, complete = Figures.handover_gap ~scheduler in
      Fmt.pr "%-12s delivery gap across handover %6.1f ms (complete: %b)@."
        scheduler (gap *. 1e3) complete)
    [ "default"; "handover" ]

(* ------------------------------------------------------------------ *)
(* §5.4 — target-RTT and deadline-driven scheduling                    *)
(* ------------------------------------------------------------------ *)

let targets () =
  section "§5.4"
    "latency targets for thin request/response flows; DASH chunk deadlines"
    "with a tolerable-RTT intent the scheduler leaves the preferred subflow \
     only when the target is violated (cf. [13]: ~15% of WiFi samples are \
     slower than LTE); the deadline scheduler keeps the non-preferred \
     subflow asleep unless a chunk would miss its deadline";
  List.iter
    (fun scheduler ->
      let p95, lte = Figures.target_latency ~scheduler in
      Fmt.pr "%-12s request p95 latency %6.1f ms, LTE bytes %7d@." scheduler
        (p95 *. 1e3) lte)
    [ "default"; "target_rtt" ];
  (* deadline-driven DASH with WiFi dips *)
  Fmt.pr "@.DASH chunks (400 kB every 500 ms), WiFi dips to 0.3 MB/s twice:@.";
  List.iter
    (fun scheduler ->
      let o = Figures.dash_deadlines ~scheduler in
      Fmt.pr "%-16s deadline misses %2d, backup (LTE) bytes %8d@." scheduler
        o.Apps.Dash.deadline_misses o.Apps.Dash.backup_bytes)
    [ "default"; "target_deadline" ]

(* ------------------------------------------------------------------ *)
(* §4.2 — receiver-side delivery: stock two-layer vs improved          *)
(* ------------------------------------------------------------------ *)

let receiver () =
  section "§4.2"
    "receiver-side packet handling under loss and cross-subflow reordering"
    "the stock two-layer receiver withholds data that is already in order \
     at the data level; the improved receiver delivers at the earliest \
     possible moment, reducing delivery latency";
  let run ?(ordering = Meta_socket.Ordered) delivery_mode =
    Figures.receiver_latency ~delivery_mode ~ordering
  in
  let m_imm, p_imm = run Tcp_subflow.Immediate in
  let m_two, p_two = run Tcp_subflow.Two_layer in
  let m_un, p_un =
    run ~ordering:Meta_socket.Unordered Tcp_subflow.Immediate
  in
  Fmt.pr "%-26s mean delivery %7.1f ms, p95 %7.1f ms@." "stock (two-layer)"
    (m_two *. 1e3) (p_two *. 1e3);
  Fmt.pr "%-26s mean delivery %7.1f ms, p95 %7.1f ms@." "improved (immediate)"
    (m_imm *. 1e3) (p_imm *. 1e3);
  Fmt.pr "%-26s mean delivery %7.1f ms, p95 %7.1f ms@."
    "unordered (beyond-MPTCP)" (m_un *. 1e3) (p_un *. 1e3)

(* ------------------------------------------------------------------ *)
(* Table 2 — the design space, mapped to this repository               *)
(* ------------------------------------------------------------------ *)

let table2 () =
  section "Table 2" "the unexplored scheduler design space"
    "each row maps to an implemented, loadable scheduler";
  load_zoo ();
  List.iter
    (fun (category, sched, where) ->
      let status =
        match Scheduler.find sched with Some _ -> "loaded" | None -> "MISSING"
      in
      Fmt.pr "  %-30s %-26s %-8s (%s)@." category sched status where)
    [
      ("Probing", "probing", "Table 2");
      ("Redundancy / new vs old pkts", "redundant_if_no_q", "§5.1");
      ("Redundancy / partial", "opportunistic_redundant", "§5.1");
      ("Handover", "handover", "§5.2");
      ("Heterogeneous / flow end", "compensating", "§5.3");
      ("Heterogeneous / selective", "selective_compensation", "§5.3");
      ("Preference / ensure RTT", "target_rtt", "§5.4");
      ("Preference / ensure thpt", "tap", "§5.4");
      ("Preference / ensure deadline", "target_deadline", "§5.4");
      ("Higher protocols / HTTP2", "http2_aware", "§5.5");
    ]

(* ------------------------------------------------------------------ *)
(* §3.4 — opportunistic retransmission under tight receive buffers     *)
(* ------------------------------------------------------------------ *)

let opp_retx () =
  section "§3.4 (opportunistic retransmission)"
    "heterogeneous subflows with a small receive buffer"
    "when slow-subflow packets block the shared receive window, \
     retransmitting them on the fast subflow unblocks it instead of \
     idling — the feature the default scheduler gained in [44]";
  Fmt.pr "%-14s %18s %28s@." "rcv buffer" "default FCT" "opportunistic-retx FCT";
  List.iter
    (fun segs ->
      let fct scheduler =
        Figures.receive_window_fct ~scheduler ~rcv_buffer:(segs * 1448)
      in
      let show = function
        | Some t -> Fmt.str "%8.1f ms" (t *. 1e3)
        | None -> "incomplete"
      in
      Fmt.pr "%4d segments %18s %28s@." segs
        (show (fct "default"))
        (show (fct "opportunistic_retransmission")))
    [ 32; 16; 8 ]

(* ------------------------------------------------------------------ *)
(* Table 2 — proactive tail handling: flow-size-aware scheduling       *)
(* ------------------------------------------------------------------ *)

let proactive () =
  section "Table 2 (flow size signaled)"
    "avoiding the slow subflow at the end of a flow, proactively"
    "with the remaining flow size signalled, the scheduler can keep the \
     flow tail off slow subflows before the damage is done — the \
     proactive sibling of the (reactive) Compensating scheduler, at \
     near-zero retransmission overhead";
  let measure ~scheduler ~rtt_ratio =
    let r = Figures.proactive_flows ~scheduler ~rtt_ratio in
    (r.Figures.fct *. 1e3, r.Figures.overhead)
  in
  Fmt.pr "%-10s %22s %24s %26s@." "RTT ratio" "default" "flow_size_aware"
    "compensating";
  List.iter
    (fun rtt_ratio ->
      let d_fct, d_w = measure ~scheduler:"default" ~rtt_ratio in
      let f_fct, f_w = measure ~scheduler:"flow_size_aware" ~rtt_ratio in
      let c_fct, c_w = measure ~scheduler:"compensating" ~rtt_ratio in
      Fmt.pr "%-10.1f %13.1f ms (%.2fx) %15.1f ms (%.2fx) %17.1f ms (%.2fx)@."
        rtt_ratio d_fct d_w f_fct f_w c_fct c_w)
    [ 2.0; 4.0; 8.0 ]

(* ------------------------------------------------------------------ *)
(* §2.2 — compensating loss in short data-center flows                 *)
(* ------------------------------------------------------------------ *)

let datacenter () =
  section "§2.2"
    "tail flow completion time of short data-center flows under loss"
    "redundancy over multiple paths compensates losses and improves the \
     tail FCT ([7], [27]: losses otherwise strand short flows on RTO \
     timeouts that dwarf the data-center RTT)";
  let fcts ~scheduler =
    List.map (fun t -> t *. 1e3) (Figures.datacenter_fcts ~scheduler)
  in
  Fmt.pr "%-26s %10s %10s %10s (40 flows of 100 kB, 1%% loss)@." "scheduler"
    "mean" "p95" "max";
  List.iter
    (fun scheduler ->
      let xs = fcts ~scheduler in
      Fmt.pr "%-26s %8.2f ms %8.2f ms %8.2f ms@." scheduler (Stats.mean xs)
        (Stats.percentile 0.95 xs)
        (Stats.percentile 1.0 xs))
    [ "default"; "redundant"; "redundant_if_no_q" ]

(* ------------------------------------------------------------------ *)
(* §2.1 — congestion-control coupling on a shared bottleneck           *)
(* ------------------------------------------------------------------ *)

let friendliness () =
  section "§2.1"
    "TCP friendliness: 2-subflow MPTCP vs single-path TCP on one bottleneck"
    "coupled congestion control (LIA, RFC 6356) caps the aggregate \
     aggressiveness so MPTCP takes roughly a single flow's share, where \
     uncoupled subflows take about two thirds";
  List.iter
    (fun (label, cc) ->
      let m, s = Figures.friendliness ~cc in
      let share = float_of_int m /. float_of_int (m + s) in
      Fmt.pr "%-18s mptcp share %.2f  (mptcp %.1f MB, tcp %.1f MB)@." label
        share
        (float_of_int m /. 1e6)
        (float_of_int s /. 1e6))
    [ ("uncoupled (Reno)", Congestion.Reno);
      ("coupled (LIA)", Congestion.Lia) ]

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("fig1", fig1);
    ("fig9", fig9);
    ("engines", engines_bench);
    ("obs", obs_bench);
    ("sweep", sweep_bench);
    ("fleet", fleet_bench);
    ("eventq", eventq_bench);
    ("snapshot", snapshot_bench);
    ("fig10b", fig10b);
    ("fig10c", fig10c);
    ("fig12", fig12);
    ("fig13", fig13);
    ("fig14", fig14);
    ("handover", handover);
    ("targets", targets);
    ("receiver", receiver);
    ("ablate-compensate", ablate_compensate);
    ("friendliness", friendliness);
    ("datacenter", datacenter);
    ("proactive", proactive);
    ("opp-retx", opp_retx);
    ("table2", table2);
  ]

let () =
  Progmp_compiler.Compile.register_engines ();
  let args = List.tl (Array.to_list Sys.argv) in
  let rec split_flags acc = function
    | "--csv" :: dir :: rest ->
        csv_dir := Some dir;
        split_flags acc rest
    | "--smoke" :: rest ->
        smoke := true;
        split_flags acc rest
    | "--mem-smoke" :: rest ->
        mem_smoke := true;
        split_flags acc rest
    | x :: rest -> split_flags (x :: acc) rest
    | [] -> List.rev acc
  in
  let requested =
    match split_flags [] args with
    | [] -> List.map fst experiments
    | ids -> ids
  in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun id ->
      match List.assoc_opt id experiments with
      | Some f -> f ()
      | None ->
          Fmt.epr "unknown experiment %s (available: %s)@." id
            (String.concat ", " (List.map fst experiments));
          exit 2)
    requested;
  close_csv ();
  (match !csv_dir with
  | Some dir -> Fmt.pr "@.CSV series written to %s/@." dir
  | None -> ());
  Fmt.pr "@.all requested experiments finished in %.1f s@."
    (Unix.gettimeofday () -. t0)
