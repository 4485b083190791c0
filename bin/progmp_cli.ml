(** [progmp] — command-line toolchain for ProgMP scheduler
    specifications: check, compile, disassemble, dry-run, and browse the
    built-in scheduler zoo. The CLI plays the role of the paper's
    userspace toolchain (§4.1) for development without a running
    connection. *)

open Cmdliner

let read_spec = function
  | "-" -> In_channel.input_all stdin
  | name when List.mem_assoc name Schedulers.Specs.all ->
      List.assoc name Schedulers.Specs.all
  | path when Sys.file_exists path -> In_channel.with_open_text path In_channel.input_all
  | other ->
      Fmt.epr "error: %s is neither a file nor a built-in scheduler@." other;
      exit 2

let spec_arg =
  let doc =
    "Scheduler specification: a file path, a built-in scheduler name (see \
     $(b,progmp list)), or - for stdin."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SPEC" ~doc)

let load src =
  match Progmp_runtime.Scheduler.of_source ~name:"cli" src with
  | sched -> sched
  | exception Progmp_runtime.Scheduler.Load_error msg ->
      Fmt.epr "%s@." msg;
      exit 1

(* ---- check ---- *)

let check_cmd =
  let run spec =
    let src = read_spec spec in
    let sched = load src in
    let p = sched.Progmp_runtime.Scheduler.program in
    Fmt.pr "ok: %d statement(s), %d variable slot(s), uses POP: %b@."
      (List.length p.Progmp_lang.Tast.body)
      p.Progmp_lang.Tast.num_slots
      (Progmp_lang.Tast.uses_pop p)
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Parse and type-check a scheduler specification")
    Term.(const run $ spec_arg)

(* ---- compile ---- *)

let compile_cmd =
  let disasm =
    Arg.(value & flag & info [ "disasm"; "d" ] ~doc:"Print the compiled bytecode.")
  in
  let subflows =
    Arg.(
      value
      & opt (some int) None
      & info [ "subflows" ]
          ~doc:"Specialize for a constant number of subflows (§4.1).")
  in
  let run spec disasm subflow_count =
    let src = read_spec spec in
    let sched = load src in
    match
      Progmp_compiler.Compile.compile_with_stats ?subflow_count
        sched.Progmp_runtime.Scheduler.program
    with
    | prog, stats ->
        Fmt.pr
          "compiled: %d virtual instrs -> %d emitted -> %d optimized, %d \
           stack slots, %d spilled vregs@."
          stats.Progmp_compiler.Compile.vinstrs
          stats.Progmp_compiler.Compile.raw_instrs
          stats.Progmp_compiler.Compile.instrs
          stats.Progmp_compiler.Compile.spill_slots
          stats.Progmp_compiler.Compile.spilled_vregs;
        if disasm then
          print_string (Progmp_compiler.Disasm.to_string prog.Progmp_compiler.Vm.code)
    | exception Progmp_compiler.Compile.Rejected msg ->
        Fmt.epr "%s@." msg;
        exit 1
    | exception Invalid_argument msg ->
        Fmt.epr "error: %s@." msg;
        exit 2
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:"Compile a specification to eBPF-style bytecode and verify it")
    Term.(const run $ spec_arg $ disasm $ subflows)

(* ---- run (dry run against a synthetic environment) ---- *)

let select_engine sched name =
  match Progmp_runtime.Scheduler.set_engine sched name with
  | () -> ()
  | exception Progmp_runtime.Engine.Unknown msg ->
      Fmt.epr "error: %s@." msg;
      exit 2

let run_cmd =
  let packets =
    Arg.(value & opt int 3 & info [ "packets" ] ~doc:"Packets in the sending queue Q.")
  in
  let executions =
    Arg.(value & opt int 1 & info [ "n" ] ~doc:"Number of scheduler executions.")
  in
  let registers =
    Arg.(
      value
      & opt_all (pair ~sep:'=' int int) []
      & info [ "r" ] ~docv:"N=V" ~doc:"Set register RN to V before running.")
  in
  let profile_flag =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Run with the profiling interpreter and print the annotated \
             control-flow trace afterwards (overrides --engine).")
  in
  let trace_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record each execution's decision (scheduler, engine, register \
             access masks, emitted actions) as JSON Lines to $(docv) ('-' \
             for stdout); the time column is the execution index. A .csv \
             suffix selects the CSV encoding.")
  in
  let metrics_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Write one CSV metrics row per synthetic subflow per execution \
             to $(docv) ('-' for stdout), in the simulator's metrics \
             format.")
  in
  let run spec engine packets executions registers profile trace_file
      metrics_file =
    let src = read_spec spec in
    let sched = load src in
    select_engine sched engine;
    let prof =
      if profile then Some (Progmp_runtime.Profiler.attach sched) else None
    in
    let env = Progmp_runtime.Env.create () in
    for i = 0 to packets - 1 do
      Progmp_runtime.Pqueue.push_back env.Progmp_runtime.Env.q
        (Progmp_runtime.Packet.create ~seq:i ~size:1448 ~now:0.0 ())
    done;
    List.iter (fun (r, v) -> Progmp_runtime.Env.set_register env (r - 1) v) registers;
    let views =
      [|
        { Progmp_runtime.Subflow_view.default with Progmp_runtime.Subflow_view.id = 0; rtt_us = 40_000 };
        { Progmp_runtime.Subflow_view.default with Progmp_runtime.Subflow_view.id = 1; rtt_us = 10_000 };
      |]
    in
    let out_for f = if f = "-" then (stdout, false) else (open_out f, true) in
    let exec_index = ref 0 in
    let trace =
      match trace_file with
      | None -> None
      | Some f ->
          let sink, finish = Mptcp_obs.Trace.to_file f in
          (* there is no simulated clock in a dry run: trace decisions
             through the runtime hook, stamped with the execution index *)
          Progmp_runtime.Scheduler.set_tracer (fun xr ->
              let time = float_of_int !exec_index in
              Mptcp_obs.Trace.emit sink ~time
                (Mptcp_obs.Trace.Sched_invoke
                   {
                     scheduler = xr.Progmp_runtime.Scheduler.xr_scheduler;
                     engine = xr.Progmp_runtime.Scheduler.xr_engine;
                     actions =
                       List.length xr.Progmp_runtime.Scheduler.xr_actions;
                     regs_read = xr.Progmp_runtime.Scheduler.xr_regs_read;
                     regs_written = xr.Progmp_runtime.Scheduler.xr_regs_written;
                     q = Progmp_runtime.Pqueue.length env.Progmp_runtime.Env.q;
                     qu = Progmp_runtime.Pqueue.length env.Progmp_runtime.Env.qu;
                     rq = Progmp_runtime.Pqueue.length env.Progmp_runtime.Env.rq;
                   });
              List.iter
                (fun a ->
                  Mptcp_obs.Trace.emit sink ~time
                    (Mptcp_obs.Trace.Sched_action
                       {
                         scheduler = xr.Progmp_runtime.Scheduler.xr_scheduler;
                         action = Fmt.to_to_string Progmp_runtime.Action.pp a;
                       }))
                xr.Progmp_runtime.Scheduler.xr_actions);
          Some finish
    in
    let metrics =
      match metrics_file with
      | None -> None
      | Some f ->
          let oc, close = out_for f in
          output_string oc (Mptcp_obs.Metrics.csv_header ^ "\n");
          Some (oc, close)
    in
    let sample_views () =
      match metrics with
      | None -> ()
      | Some (oc, _) ->
          Array.iter
            (fun (v : Progmp_runtime.Subflow_view.t) ->
              Mptcp_obs.Metrics.write_row oc
                {
                  Mptcp_obs.Metrics.time = float_of_int !exec_index;
                  sbf = v.Progmp_runtime.Subflow_view.id;
                  path = Fmt.str "sbf%d" v.Progmp_runtime.Subflow_view.id;
                  cwnd = float_of_int v.Progmp_runtime.Subflow_view.cwnd;
                  ssthresh = float_of_int v.Progmp_runtime.Subflow_view.ssthresh;
                  srtt_ms =
                    float_of_int v.Progmp_runtime.Subflow_view.rtt_us /. 1e3;
                  rto_ms =
                    float_of_int v.Progmp_runtime.Subflow_view.rto_us /. 1e3;
                  in_flight = v.Progmp_runtime.Subflow_view.skbs_in_flight;
                  queued = v.Progmp_runtime.Subflow_view.queued;
                  q = Progmp_runtime.Pqueue.length env.Progmp_runtime.Env.q;
                  qu = Progmp_runtime.Pqueue.length env.Progmp_runtime.Env.qu;
                  rq = Progmp_runtime.Pqueue.length env.Progmp_runtime.Env.rq;
                  bytes_acked = 0;
                  goodput_bps =
                    float_of_int v.Progmp_runtime.Subflow_view.throughput_bps;
                  delivered_bytes = 0;
                  (* synthetic views have no link model *)
                  link_backlog = 0;
                  link_drops = 0;
                })
            views
    in
    for i = 1 to executions do
      exec_index := i;
      let actions = Progmp_runtime.Scheduler.execute sched env ~subflows:views in
      sample_views ();
      Fmt.pr "execution %d (%s):@." i (Progmp_runtime.Scheduler.engine_label sched);
      if actions = [] then Fmt.pr "  (no actions)@."
      else
        List.iter (fun a -> Fmt.pr "  %a@." Progmp_runtime.Action.pp a) actions
    done;
    Option.iter
      (fun finish ->
        Progmp_runtime.Scheduler.clear_tracer ();
        finish ())
      trace;
    (match metrics with
    | None -> ()
    | Some (oc, close) -> if close then close_out oc else flush oc);
    Fmt.pr "Q after: %d packet(s); registers: %a@."
      (Progmp_runtime.Pqueue.length env.Progmp_runtime.Env.q)
      Fmt.(array ~sep:(any " ") int)
      env.Progmp_runtime.Env.registers;
    match prof with
    | Some p -> print_string (Progmp_runtime.Profiler.report p)
    | None -> ()
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Dry-run a scheduler against a synthetic two-subflow environment \
          (40 ms and 10 ms RTT)")
    Term.(
      const run $ spec_arg $ Mptcp_exp.Fleet_cli.engine_arg $ packets
      $ executions $ registers $ profile_flag $ trace_opt $ metrics_opt)

(* ---- gen-ocaml ---- *)

let gen_ocaml_cmd =
  let run spec =
    let src = read_spec spec in
    let sched = load src in
    print_string
      (Progmp_runtime.Source_gen.emit
         ~name:(Fmt.str "%S" (if String.length spec < 40 then spec else "stdin"))
         sched.Progmp_runtime.Scheduler.program)
  in
  Cmd.v
    (Cmd.info "gen-ocaml"
       ~doc:
         "Generate a standalone OCaml engine module from a specification \
          (the ahead-of-time source backend)")
    Term.(const run $ spec_arg)

(* ---- list / show ---- *)

let list_cmd =
  let run () =
    List.iter (fun (name, _) -> print_endline name) Schedulers.Specs.all
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List the built-in scheduler zoo")
    Term.(const run $ const ())

let show_cmd =
  let run spec = print_string (read_spec spec) in
  Cmd.v
    (Cmd.info "show" ~doc:"Print the source of a built-in scheduler")
    Term.(const run $ spec_arg)

(* ---- engines ---- *)

let engines_cmd =
  let run () =
    List.iter
      (fun (e : Progmp_runtime.Engine.t) ->
        Fmt.pr "%-12s %s%s@." e.Progmp_runtime.Engine.engine_name
          e.Progmp_runtime.Engine.caps.Progmp_runtime.Engine.description
          (if e.Progmp_runtime.Engine.caps.Progmp_runtime.Engine.verified then
             " [verified]"
           else ""))
      (Progmp_runtime.Engine.all ())
  in
  Cmd.v
    (Cmd.info "engines" ~doc:"List the registered execution engines")
    Term.(const run $ const ())

let main =
  Cmd.group
    (Cmd.info "progmp" ~version:"1.0.0"
       ~doc:"ProgMP: application-defined Multipath TCP scheduling toolchain")
    [
      check_cmd; compile_cmd; run_cmd; gen_ocaml_cmd; list_cmd; show_cmd;
      engines_cmd;
    ]

let () =
  (* Force-link the compiler so its "threaded" engine registration runs even
     though this binary only selects engines by name. *)
  Progmp_compiler.Compile.register_engines ();
  exit (Cmd.eval main)
