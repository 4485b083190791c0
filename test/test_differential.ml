(** Differential testing of the three execution backends (the paper's
    interpreter / AOT / eBPF-JIT triad): for the whole scheduler zoo and
    for thousands of randomly generated well-typed programs, all backends
    must produce identical action sequences, queue states and register
    files on identical environments. *)

open Progmp_runtime
open Helpers

type observation = {
  o_actions : norm_action list;
  o_queues : int list * int list * int list;
  o_regs : int list;
}

let pp_obs ppf o =
  let q, qu, rq = o.o_queues in
  Fmt.pf ppf "actions=[%a] q=[%a] qu=[%a] rq=[%a] regs=[%a]"
    Fmt.(list ~sep:(any ";") pp_norm)
    o.o_actions
    Fmt.(list ~sep:(any ",") int)
    q
    Fmt.(list ~sep:(any ",") int)
    qu
    Fmt.(list ~sep:(any ",") int)
    rq
    Fmt.(list ~sep:(any ",") int)
    o.o_regs

let obs_testable = Alcotest.testable pp_obs ( = )

let observe engine (program : Progmp_lang.Tast.program) spec =
  let env, views = build spec in
  Env.begin_execution env ~subflows:views;
  engine env;
  let actions = List.map norm_action (Env.finish_execution env) in
  {
    o_actions = actions;
    o_queues = (seqs_of env.Env.q, seqs_of env.Env.qu, seqs_of env.Env.rq);
    o_regs = Array.to_list env.Env.registers;
  }
  [@@warning "-27"]

(* All engines come from the registry: the differential suite then
   exercises exactly the factories production code selects by name. *)
let () = Progmp_compiler.Compile.register_engines ()

let backends (program : Progmp_lang.Tast.program) =
  List.map
    (fun name -> (name, Engine.instantiate name program))
    (Engine.names ())

let interpreter_first engines =
  let is_interp (name, _) = String.equal name "interpreter" in
  List.filter is_interp engines
  @ List.filter (fun e -> not (is_interp e)) engines

let agree program spec =
  match interpreter_first (backends program) with
  | (_, ref_engine) :: rest ->
      let reference = observe ref_engine program spec in
      List.iter
        (fun (name, engine) ->
          let o = observe engine program spec in
          Alcotest.check obs_testable (name ^ " agrees with interpreter")
            reference o)
        rest
  | [] -> assert false

(* Hand-picked env specs stressing different aspects. *)
let specs =
  let v ?(backup = false) ?(throttled = false) ?(lossy = false)
      ?(cwnd = 10) ?(inflight = 0) ?(queued = 0) id rtt =
    {
      Subflow_view.default with
      Subflow_view.id;
      rtt_us = rtt;
      rtt_avg_us = rtt;
      cwnd;
      skbs_in_flight = inflight;
      queued;
      is_backup = backup;
      tsq_throttled = throttled;
      lossy;
      throughput_bps = cwnd * 1448 * 1_000_000 / rtt;
    }
  in
  [
    ("no subflows", { default_env_spec with views = [] });
    ("empty queues", { default_env_spec with q_seqs = [] });
    ("default", default_env_spec);
    ( "exhausted cwnd",
      {
        default_env_spec with
        views = [ v ~cwnd:2 ~inflight:2 0 10_000; v ~cwnd:4 ~inflight:1 1 40_000 ];
      } );
    ( "all backup",
      {
        default_env_spec with
        views = [ v ~backup:true 0 10_000; v ~backup:true 1 40_000 ];
      } );
    ( "throttled and lossy",
      {
        default_env_spec with
        views = [ v ~throttled:true 0 10_000; v ~lossy:true 1 40_000 ];
      } );
    ( "reinjections pending",
      {
        default_env_spec with
        qu_seqs = [ (50, [ 0 ]); (51, [ 0; 1 ]) ];
        rq_seqs = [ 50 ];
        regs = [ (0, 1_000_000); (1, 1) ];
      } );
    ( "four subflows",
      {
        q_seqs = [ 0; 1; 2; 3; 4; 5 ];
        qu_seqs = [ (10, [ 0 ]); (11, [ 1; 2 ]); (12, []) ];
        rq_seqs = [ 12 ];
        views =
          [
            v 0 10_000; v ~backup:true 1 40_000; v ~cwnd:1 ~inflight:1 2 5_000;
            v ~lossy:true 3 80_000;
          ];
        regs = [ (0, 2_000_000); (1, 1); (2, 1) ];
      } );
    ( "single subflow, deep queues",
      {
        q_seqs = List.init 40 Fun.id;
        qu_seqs = List.init 10 (fun i -> (100 + i, [ 0 ]));
        rq_seqs = [ 104; 107 ];
        views = [ v ~cwnd:32 ~inflight:10 0 15_000 ];
        regs = [ (0, 500_000) ];
      } );
    ( "equal RTTs (tie-breaking)",
      {
        default_env_spec with
        views = [ v 0 20_000; v 1 20_000; v 2 20_000 ];
      } );
    ( "registers at extremes",
      {
        default_env_spec with
        regs = [ (0, max_int / 2); (1, -1); (3, min_int / 2) ];
      } );
  ]

let zoo_cases =
  List.concat_map
    (fun (sched_name, src) ->
      let program = Progmp_lang.Typecheck.compile_source src in
      List.map
        (fun (spec_name, spec) ->
          tc
            (Fmt.str "%s / %s" sched_name spec_name)
            (fun () -> agree program spec))
        specs)
    Schedulers.Specs.all

(* Compiled code is shared across domains; only an instance's scratch is
   private. Four domains instantiate every (engine, zoo scheduler) pair
   from one cached compile, several times over, and run the zoo inputs
   at the same time: every tape must equal the interpreter's, and the
   cache must have compiled each pair exactly once. *)
let cross_domain_case =
  tc "four domains share one compile per engine and program" (fun () ->
      let domains = 4 and rounds = 3 in
      let engines = Engine.names () in
      (* fresh programs: none has been compiled by an earlier test *)
      let programs =
        List.map
          (fun (name, src) -> (name, Progmp_lang.Typecheck.compile_source src))
          Schedulers.Specs.all
      in
      let tapes run program =
        List.map (fun (_, spec) -> observe run program spec) specs
      in
      let reference =
        List.map (fun (name, p) -> (name, tapes (Interpreter.run p) p)) programs
      in
      let hits0, misses0 = Engine.cache_stats () in
      let worker () =
        List.concat_map
          (fun engine ->
            List.concat_map
              (fun (name, program) ->
                List.init rounds (fun _ ->
                    let run = Engine.instantiate engine program in
                    (engine, name, tapes run program)))
              programs)
          engines
      in
      let results =
        List.concat_map Domain.join
          (List.init domains (fun _ -> Domain.spawn worker))
      in
      List.iter
        (fun (engine, name, got) ->
          Alcotest.(check (list obs_testable))
            (Fmt.str "%s on %s agrees with the interpreter" name engine)
            (List.assoc name reference) got)
        results;
      let hits1, misses1 = Engine.cache_stats () in
      let pairs = List.length engines * List.length programs in
      Alcotest.(check int) "one compile per (engine, program)" pairs
        (misses1 - misses0);
      Alcotest.(check int) "every other instantiation hit the cache"
        ((domains * rounds * pairs) - pairs)
        (hits1 - hits0))

(* Native oracles: the hand-written OCaml schedulers must match their DSL
   counterparts action-for-action. *)
let native_cases =
  let pairs =
    [
      ("default", Schedulers.Specs.default, Schedulers.Native.default);
      ("round_robin", Schedulers.Specs.round_robin, Schedulers.Native.round_robin);
      ( "redundant_if_no_q",
        Schedulers.Specs.redundant_if_no_q,
        Schedulers.Native.redundant_if_no_q );
    ]
  in
  List.concat_map
    (fun (name, src, native) ->
      let program = Progmp_lang.Typecheck.compile_source src in
      List.map
        (fun (spec_name, spec) ->
          tc (Fmt.str "native %s / %s" name spec_name) (fun () ->
              let reference =
                observe (fun env -> Interpreter.run program env) program spec
              in
              let o = observe native program spec in
              Alcotest.check obs_testable "native agrees" reference o))
        specs)
    pairs

(* Random programs x random environments. *)
let random_diff =
  let gen =
    QCheck2.Gen.pair Gen.gen_program
      (QCheck2.Gen.small_list Gen.gen_env_spec)
  in
  QCheck2.Test.make ~name:"random programs agree across backends" ~count:500
    gen (fun (ast, env_specs) ->
      let program =
        try Progmp_lang.Typecheck.check ast
        with Progmp_lang.Typecheck.Error (m, _) ->
          QCheck2.Test.fail_reportf
            "generator produced ill-typed program: %s@\n%s" m
            (Progmp_lang.Pretty.program_to_string ast)
      in
      let specs = default_env_spec :: env_specs in
      List.for_all
        (fun spec ->
          let engines = interpreter_first (backends program) in
          match List.map (fun (_, e) -> observe e program spec) engines with
          | reference :: others -> List.for_all (( = ) reference) others
          | [] -> true)
        specs)

(* Whole-simulation differential under fault injection: the same
   scheduler driven by every registered engine, over identical network
   dynamics (flapping outage, loss episode, bandwidth change, subflow
   fail/reestablish), must make identical scheduling decisions — observed as identical delivery order, subflow
   counters and meta-socket statistics. *)

type sim_fingerprint = {
  f_order : int list;
  f_subflows : (int * int * int * int * int) list;
      (** per subflow: segs_sent, segs_retx, bytes_sent, bytes_acked,
          snd_nxt *)
  f_meta : int * int * int;  (** pushes, drops, sched_executions *)
  f_delivered : int;
  f_complete : bool;
}

let pp_sim_fingerprint ppf f =
  let pushes, drops, execs = f.f_meta in
  Fmt.pf ppf
    "delivered=%d complete=%b meta=(%d,%d,%d) subflows=[%a] order_len=%d"
    f.f_delivered f.f_complete pushes drops execs
    Fmt.(
      list ~sep:(any ";") (fun ppf (a, b, c, d, e) ->
          pf ppf "(%d,%d,%d,%d,%d)" a b c d e))
    f.f_subflows (List.length f.f_order)

let sim_fp_testable = Alcotest.testable pp_sim_fingerprint ( = )

let sim_fault_script =
  let open Mptcp_sim in
  Faults.flap ~start:0.3 ~period:1.0 ~down_for:0.3 ~until:3.0 "sbf2"
  @ [
      Faults.step ~at:0.4 "sbf1" (Faults.Set_bandwidth 800_000.0);
      Faults.step ~at:0.5 "sbf1" (Faults.Set_loss 0.02);
      Faults.step ~at:1.2 "sbf1" Faults.Subflow_fail;
      Faults.step ~at:2.2 "sbf1" (Faults.Set_loss 0.0);
      Faults.step ~at:2.5 "sbf1" Faults.Subflow_reestablish;
    ]

let sim_run sched_src ~name ~engine =
  let open Mptcp_sim in
  let sched = Scheduler.of_source ~name:(Fmt.str "simdiff-%s" name) sched_src in
  Scheduler.set_engine sched engine;
  let paths = Apps.Scenario.mininet_two_subflows ~rtt_ratio:2.0 () in
  let conn = Connection.create ~seed:11 ~paths () in
  (Connection.sock conn).Api.scheduler <- sched;
  Faults.apply conn sim_fault_script;
  let order = ref [] in
  conn.Connection.meta.Meta_socket.on_deliver <-
    (fun ~seq ~size:_ ~time:_ -> order := seq :: !order);
  let checker = Invariants.attach conn in
  Connection.write_at conn ~time:0.1 200_000;
  Connection.run ~until:300.0 conn;
  Alcotest.(check int)
    (Fmt.str "invariants clean (%s): %s" name
       (Option.value ~default:"" (Invariants.report checker)))
    0 (Invariants.total checker);
  let meta = conn.Connection.meta in
  {
    f_order = List.rev !order;
    f_subflows =
      List.map
        (fun m ->
          let s = m.Path_manager.subflow in
          ( s.Tcp_subflow.segs_sent,
            s.Tcp_subflow.segs_retx,
            s.Tcp_subflow.bytes_sent,
            s.Tcp_subflow.bytes_acked,
            s.Tcp_subflow.snd_nxt ))
        conn.Connection.paths;
    f_meta =
      ( meta.Meta_socket.pushes,
        meta.Meta_socket.drops,
        meta.Meta_socket.sched_executions );
    f_delivered = Connection.delivered_bytes conn;
    f_complete = Meta_socket.all_delivered meta;
  }

let sim_fault_cases =
  List.map
    (fun sched_name ->
      let src = List.assoc sched_name Schedulers.Specs.all in
      tc
        (Fmt.str "%s under faults: all engines agree" sched_name)
        (fun () ->
          let reference = sim_run src ~name:sched_name ~engine:"interpreter" in
          Alcotest.(check bool)
            (Fmt.str "reference run delivered everything: %a"
               pp_sim_fingerprint reference)
            true reference.f_complete;
          List.iter
            (fun engine ->
              if not (String.equal engine "interpreter") then
                let o = sim_run src ~name:sched_name ~engine in
                Alcotest.check sim_fp_testable
                  (engine ^ " matches the interpreter") reference o)
            (Engine.names ())))
    [ "default"; "round_robin"; "redundant"; "redundant_if_no_q"; "target_rtt" ]

let suite =
  [
    ("differential-zoo", zoo_cases);
    ("differential-domains", [ cross_domain_case ]);
    ("differential-native", native_cases);
    ( "differential-random",
      [ QCheck_alcotest.to_alcotest random_diff ] );
    ("differential-sim-faults", sim_fault_cases);
  ]
