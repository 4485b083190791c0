(** Runtime tests: environment bookkeeping (the no-packet-loss guarantee
    across executions), scheduler registry and compressed execution, and
    the extended application API. *)

open Progmp_runtime
open Helpers

(* substring containment *)
module Astring_like = struct
  let contains haystack needle =
    let nh = String.length haystack and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
    nn = 0 || go 0
end

(* QCheck: whatever a random program does, packets are conserved — every
   packet initially in Q is afterwards in Q, or pushed, or dropped; never
   silently gone. *)
let no_loss =
  QCheck2.Test.make ~name:"packets are never lost by an execution" ~count:500
    (QCheck2.Gen.pair Gen.gen_program Gen.gen_env_spec)
    (fun (ast, spec) ->
      let program = Progmp_lang.Typecheck.check ast in
      let env, views = build spec in
      let before = seqs_of env.Env.q in
      Env.begin_execution env ~subflows:views;
      Interpreter.instantiate program env;
      let actions = Env.finish_execution env in
      let after = seqs_of env.Env.q in
      let handled seq =
        List.exists
          (function
            | Action.Push { pkt; _ } -> pkt.Packet.seq = seq
            | Action.Drop pkt -> pkt.Packet.seq = seq)
          actions
      in
      List.for_all (fun seq -> List.mem seq after || handled seq) before)

let suite =
  [
    ( "runtime",
      [
        tc "packet sent_on mask tracks subflows" (fun () ->
            let p = Packet.create ~seq:0 ~size:1 ~now:0.0 () in
            Packet.mark_sent p ~sbf_id:3;
            Packet.mark_sent p ~sbf_id:0;
            Alcotest.(check bool) "on 3" true (Packet.sent_on p ~sbf_id:3);
            Alcotest.(check bool) "on 0" true (Packet.sent_on p ~sbf_id:0);
            Alcotest.(check bool) "not on 1" false (Packet.sent_on p ~sbf_id:1);
            Alcotest.(check int) "count" 2 p.Packet.sent_count);
        tc "packet ids are unique" (fun () ->
            let a = Packet.create ~seq:0 ~size:1 ~now:0.0 () in
            let b = Packet.create ~seq:0 ~size:1 ~now:0.0 () in
            Alcotest.(check bool) "distinct" true (a.Packet.id <> b.Packet.id));
        tc "user props clamp out-of-range" (fun () ->
            let p = Packet.create ~seq:0 ~size:1 ~now:0.0 () in
            Packet.set_user_prop p 0 7;
            Packet.set_user_prop p 99 5;
            Alcotest.(check int) "prop1" 7 (Packet.user_prop p 0);
            Alcotest.(check int) "oob reads 0" 0 (Packet.user_prop p 99));
        tc "registers out of range read as zero" (fun () ->
            let env = Env.create () in
            Alcotest.(check int) "r99" 0 (Env.get_register env 99);
            Env.set_register env 99 5 (* ignored *);
            Alcotest.(check int) "still 0" 0 (Env.get_register env 99));
        tc "has_window_for respects receive window" (fun () ->
            let v =
              {
                Subflow_view.default with
                Subflow_view.receive_window_bytes = 3000;
                skbs_in_flight = 1;
                mss = 1448;
              }
            in
            let small = Packet.create ~seq:0 ~size:1000 ~now:0.0 () in
            let big = Packet.create ~seq:1 ~size:2000 ~now:0.0 () in
            Alcotest.(check bool) "small fits" true (Subflow_view.has_window_for v small);
            Alcotest.(check bool) "big blocked" false (Subflow_view.has_window_for v big));
        tc "scheduler registry load and find" (fun () ->
            let _ = Scheduler.load ~name:"reg-test" Schedulers.Specs.minrtt_minimal in
            (match Scheduler.find "reg-test" with
            | Some s -> Alcotest.(check string) "name" "reg-test" s.Scheduler.name
            | None -> Alcotest.fail "not found");
            Alcotest.(check bool) "unknown absent" true
              (Scheduler.find "no-such-scheduler" = None));
        tc "load error on bad spec" (fun () ->
            match Scheduler.load ~name:"broken" "VAR x = ;" with
            | _ -> Alcotest.fail "expected Load_error"
            | exception Scheduler.Load_error _ -> ());
        tc "compressed execution drains until cwnd closes" (fun () ->
            (* one subflow with cwnd 3: compressed execution must push
               exactly 3 of the 10 queued packets *)
            let sched = load_anon Schedulers.Specs.default in
            let env = Env.create () in
            for i = 0 to 9 do
              Pqueue.push_back env.Env.q (Packet.create ~seq:i ~size:1448 ~now:0.0 ())
            done;
            let queued = ref 0 in
            let snapshot () =
              [| { Subflow_view.default with Subflow_view.cwnd = 3; queued = !queued } |]
            in
            let applied =
              Scheduler.execute_compressed sched env ~snapshot ~apply:(function
                | Action.Push _ -> incr queued
                | Action.Drop _ -> ())
            in
            Alcotest.(check int) "three pushes" 3 applied;
            Alcotest.(check int) "each one applied" 3 !queued;
            Alcotest.(check int) "seven remain" 7 (Pqueue.length env.Env.q));
        tc "compressed execution respects max_rounds" (fun () ->
            let sched = load_anon "SET(R1, R1 + 1); SUBFLOWS.GET(0).PUSH(Q.TOP);" in
            let env = Env.create () in
            Pqueue.push_back env.Env.q (Packet.create ~seq:0 ~size:1 ~now:0.0 ());
            let snapshot () = [| Subflow_view.default |] in
            let applied =
              Scheduler.execute_compressed ~max_rounds:5 sched env ~snapshot
                ~apply:(fun _ -> ())
            in
            Alcotest.(check int) "bounded" 5 applied;
            Alcotest.(check int) "five rounds ran" 5 (Env.get_register env 0));
        tc "api: set/get register" (fun () ->
            let sock = Api.create () in
            Api.set_register sock 0 1234;
            Alcotest.(check int) "r1" 1234 (Api.get_register sock 0);
            match Api.set_register sock 9 1 with
            | () -> Alcotest.fail "expected Api_error"
            | exception Api.Api_error _ -> ());
        tc "api: default scheduler installed" (fun () ->
            let sock = Api.create () in
            Alcotest.(check string) "default" "default" (Api.scheduler_name sock));
        tc "api: load and select scheduler" (fun () ->
            let sock = Api.create () in
            Api.load_scheduler Schedulers.Specs.round_robin ~name:"rr-api";
            Api.set_scheduler sock "rr-api";
            Alcotest.(check string) "selected" "rr-api" (Api.scheduler_name sock));
        tc "api: selecting unknown scheduler fails" (fun () ->
            let sock = Api.create () in
            match Api.set_scheduler sock "does-not-exist" with
            | () -> Alcotest.fail "expected Api_error"
            | exception Api.Api_error _ -> ());
        tc "api: loading invalid spec fails" (fun () ->
            match Api.load_scheduler "IF (" ~name:"broken-api" with
            | () -> Alcotest.fail "expected Api_error"
            | exception Api.Api_error _ -> ());
        tc "api: packet properties" (fun () ->
            let sock = Api.create () in
            Api.set_packet_property sock ~prop:0 3;
            Alcotest.(check int) "prop set" 3 (Api.current_packet_props sock).(0);
            match Api.set_packet_property sock ~prop:9 1 with
            | () -> Alcotest.fail "expected Api_error"
            | exception Api.Api_error _ -> ());
        tc "api: a new socket runs the current default entry's engine"
          (fun () ->
            ignore (Api.create ());
            let default = Option.get (Scheduler.find "default") in
            let label = Scheduler.engine_label default
            and run = default.Scheduler.run in
            Fun.protect
              ~finally:(fun () -> Scheduler.install_custom default ~name:label run)
              (fun () ->
                Scheduler.set_engine default "aot";
                let sock = Api.create () in
                Alcotest.(check string) "engine" "aot"
                  (Scheduler.engine_label sock.Api.scheduler);
                Alcotest.(check bool) "own instance" true
                  (sock.Api.scheduler.Scheduler.run != default.Scheduler.run)));
        tc "api: sockets never share a scheduler instance" (fun () ->
            let s1 = Api.create () and s2 = Api.create () in
            let run (s : Api.socket) = s.Api.scheduler.Scheduler.run in
            Alcotest.(check bool) "created" true (run s1 != run s2);
            Api.load_scheduler Schedulers.Specs.round_robin ~name:"rr-own";
            Api.set_scheduler s1 "rr-own";
            Api.set_scheduler s2 "rr-own";
            let entry = Option.get (Scheduler.find "rr-own") in
            Alcotest.(check bool) "selected" true (run s1 != run s2);
            Alcotest.(check bool) "not the registry's" true
              (run s1 != entry.Scheduler.run && run s2 != entry.Scheduler.run));
        tc "api: a custom decision function is shared as installed" (fun () ->
            Api.load_scheduler Schedulers.Specs.round_robin ~name:"rr-custom";
            let entry = Option.get (Scheduler.find "rr-custom") in
            let custom (_ : Env.t) = () in
            Scheduler.install_custom entry ~name:"hand-written" custom;
            let sock = Api.create () in
            Api.set_scheduler sock "rr-custom";
            Alcotest.(check bool) "shared" true
              (sock.Api.scheduler.Scheduler.run == custom));
        tc "per-connection registers are isolated" (fun () ->
            let s1 = Api.create () and s2 = Api.create () in
            Api.set_register s1 0 1;
            Api.set_register s2 0 2;
            Alcotest.(check int) "s1" 1 (Api.get_register s1 0);
            Alcotest.(check int) "s2" 2 (Api.get_register s2 0));
        tc "aot engine can be selected from the registry" (fun () ->
            let sched = load_anon Schedulers.Specs.minrtt_minimal in
            Scheduler.set_engine sched "aot";
            Alcotest.(check string) "label" "aot" (Scheduler.engine_label sched));
        tc "selecting an unknown engine raises" (fun () ->
            let sched = load_anon Schedulers.Specs.minrtt_minimal in
            match Scheduler.set_engine sched "no-such-engine" with
            | () -> Alcotest.fail "expected Engine.Unknown"
            | exception Engine.Unknown msg ->
                Alcotest.(check bool) "names the engine" true
                  (Astring_like.contains msg "no-such-engine");
                Alcotest.(check bool) "lists alternatives" true
                  (Astring_like.contains msg "interpreter"));
        tc "engine names are sorted and include the core engines" (fun () ->
            let names = Engine.names () in
            Alcotest.(check (list string))
              "sorted" (List.sort compare names) names;
            List.iter
              (fun n ->
                Alcotest.(check bool) (n ^ " registered") true
                  (List.mem n names))
              [ "interpreter"; "aot" ]);
        tc "loaded_names is sorted" (fun () ->
            ignore (Scheduler.load ~name:"zz-last" Schedulers.Specs.minrtt_minimal);
            ignore (Scheduler.load ~name:"aa-first" Schedulers.Specs.minrtt_minimal);
            let names = Scheduler.loaded_names () in
            Alcotest.(check (list string))
              "sorted" (List.sort compare names) names);
        tc "duplicate load hits the compilation cache" (fun () ->
            let hits0, _ = Scheduler.compilation_cache_stats () in
            let a = Scheduler.load ~name:"cache-a" Schedulers.Specs.round_robin in
            let b = Scheduler.load ~name:"cache-b" Schedulers.Specs.round_robin in
            let hits1, _ = Scheduler.compilation_cache_stats () in
            Alcotest.(check bool) "cache hit recorded" true (hits1 > hits0);
            Alcotest.(check bool) "typed program shared" true
              (a.Scheduler.program == b.Scheduler.program);
            Alcotest.(check string) "same digest" a.Scheduler.digest
              b.Scheduler.digest);
        tc "finish_execution restores unhandled pops, newest in front" (fun () ->
            (* many pops, none handled: all must return to the front of Q
               in their original order (regression guard for the former
               O(actions x pops) scan) *)
            let env = Env.create () in
            let n = 500 in
            for i = 0 to n - 1 do
              Pqueue.push_back env.Env.q
                (Packet.create ~seq:i ~size:1 ~now:0.0 ())
            done;
            Env.begin_execution env ~subflows:[| Subflow_view.default |];
            for _ = 1 to n do
              let pkt = Pqueue.pop_front env.Env.q in
              if pkt == Packet.dummy then Alcotest.fail "queue exhausted early";
              Env.record_pop env env.Env.q pkt
            done;
            let actions = Env.finish_execution env in
            Alcotest.(check int) "no actions" 0 (List.length actions);
            Alcotest.(check (list int))
              "all packets restored in order"
              (List.init n Fun.id)
              (seqs_of env.Env.q));
        tc "finish_execution keeps handled pops out of the queue" (fun () ->
            let env = Env.create () in
            for i = 0 to 3 do
              Pqueue.push_back env.Env.q
                (Packet.create ~seq:i ~size:1 ~now:0.0 ())
            done;
            Env.begin_execution env ~subflows:[| Subflow_view.default |];
            (* pop two; push the first, leave the second orphaned *)
            let first = Pqueue.pop_front env.Env.q in
            Env.record_pop env env.Env.q first;
            Env.emit_push env ~sbf_id:0 first;
            let second = Pqueue.pop_front env.Env.q in
            Env.record_pop env env.Env.q second;
            Alcotest.(check (list int)) "popped the front two" [ 0; 1 ]
              [ first.Packet.seq; second.Packet.seq ];
            let actions = Env.finish_execution env in
            Alcotest.(check int) "one push" 1 (List.length actions);
            Alcotest.(check (list int))
              "orphan restored, pushed one gone" [ 1; 2; 3 ]
              (seqs_of env.Env.q));
        QCheck_alcotest.to_alcotest no_loss;
      ] );
  ]

(* Profiler tests live here to reuse the runtime helpers. *)
let profiler_suite =
  [
    ( "profiler",
      [
        tc "counts executions and statements" (fun () ->
            let sched = load_anon Schedulers.Specs.round_robin in
            let profile = Profiler.attach sched in
            let env, views = build default_env_spec in
            for _ = 1 to 5 do
              ignore (Scheduler.execute sched env ~subflows:views)
            done;
            let executions, actions, _ = Profiler.stats profile in
            Alcotest.(check int) "executions" 5 executions;
            Alcotest.(check bool) "actions counted" true (actions >= 3);
            let report = Profiler.report profile in
            Alcotest.(check bool) "mentions IF" true
              (Astring_like.contains report "IF (...)");
            Alcotest.(check bool) "mentions executions" true
              (Astring_like.contains report "5 executions"));
        tc "branch hit counts reflect control flow" (fun () ->
            let sched =
              load_anon
                "IF (R1 == 1) { SET(R2, 1); } ELSE { SET(R3, 1); } SET(R4, 0);"
            in
            let profile = Profiler.attach sched in
            let env, views = build default_env_spec in
            Env.set_register env 0 1;
            ignore (Scheduler.execute sched env ~subflows:views);
            Env.set_register env 0 0;
            ignore (Scheduler.execute sched env ~subflows:views);
            ignore (Scheduler.execute sched env ~subflows:views);
            (* ids: 0 = IF, 1 = SET(R2) (then), 2 = SET(R3) (else), 3 = SET(R4) *)
            Alcotest.(check int) "if entered 3x" 3 profile.Profiler.hits.(0);
            Alcotest.(check int) "then 1x" 1 profile.Profiler.hits.(1);
            Alcotest.(check int) "else 2x" 2 profile.Profiler.hits.(2);
            Alcotest.(check int) "tail 3x" 3 profile.Profiler.hits.(3));
        tc "profiled engine produces the same actions" (fun () ->
            let plain = load_anon Schedulers.Specs.default in
            let profiled = load_anon Schedulers.Specs.default in
            ignore (Profiler.attach profiled);
            let a1, q1, _ = run_once plain default_env_spec in
            let a2, q2, _ = run_once profiled default_env_spec in
            Alcotest.(check (list norm_testable)) "same actions" a1 a2;
            Alcotest.(check bool) "same queues" true (q1 = q2));
      ] );
  ]

(* A coarse performance guard: interpreting the default scheduler must
   stay within an order-of-magnitude envelope (micro-optimizations are
   benchmarked in bench/main.exe fig9; this only catches accidental
   quadratic blowups). *)
let perf_suite =
  [
    ( "perf-guard",
      [
        tc "default scheduler executes in < 100 us" (fun () ->
            let sched = load_anon Schedulers.Specs.default in
            let env, views = build default_env_spec in
            (* warm up *)
            for _ = 1 to 100 do
              ignore (Scheduler.execute sched env ~subflows:views)
            done;
            let n = 2_000 in
            let t0 = Unix.gettimeofday () in
            for _ = 1 to n do
              ignore (Scheduler.execute sched env ~subflows:views)
            done;
            let per = (Unix.gettimeofday () -. t0) /. float_of_int n in
            Alcotest.(check bool)
              (Fmt.str "%.1f us per execution" (per *. 1e6))
              true (per < 100e-6));
      ] );
  ]

(* Allocation ceilings on the decision path, in the style of the
   warm-slot test: once an instance and its environment are warm, an
   execution allocates only the [Action.Push] records it emits (3 words
   each) — no value boxes, frames, options or closures. The queue is
   refilled from a preallocated ring so every execution finds work. *)
let words_per_execution ~engine src ~views =
  let program = Progmp_lang.Typecheck.compile_source src in
  let run = Engine.instantiate engine program in
  let env = Env.create () in
  let ring =
    Array.init 64 (fun seq -> Packet.create ~seq ~size:1448 ~now:0.0 ())
  in
  let next = ref 0 in
  let refill () =
    while Pqueue.length env.Env.q < 8 do
      Pqueue.push_back env.Env.q ring.(!next);
      next := (!next + 1) mod Array.length ring
    done
  in
  let apply (_ : Action.t) = () in
  let execute () =
    refill ();
    Env.begin_execution env ~subflows:views;
    run env;
    Env.finish_execution_iter env apply
  in
  for _ = 1 to 100 do
    ignore (execute ())
  done;
  let n = 1_000 and actions = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    actions := !actions + execute ()
  done;
  let words = Gc.minor_words () -. before in
  (words, !actions)

(* Steady-state allocation of the whole simulator, not just the engine:
   a small open-loop fleet (2 link groups, Poisson arrivals at 200/s)
   is measured from simulated second 1, when its slots have started
   recycling, to second 4. Packets, in-flight entries, acks, events,
   handshakes and snapshots all come from pools or arenas by then, so
   what a decision allocates is left to the engine's actions and a few
   boxed floats. *)
let fleet_words_per_decision ~engine =
  let module F = Mptcp_sim.Fleet in
  let module X = Mptcp_exp in
  let sched = Scheduler.of_source ~name:"default" Schedulers.Specs.default in
  let fleet =
    F.create ~seed:7 ~scheduler:(sched, engine) ~groups:2
      ~paths:(X.Sweep.fleet_group_paths ~loss:0.0)
      ()
  in
  let sizes = Mptcp_sim.Rng.stream ~seed:7 2 in
  X.Traffic.drive ~clock:(F.clock fleet)
    ~rng:(Mptcp_sim.Rng.stream ~seed:7 1)
    ~rate:(fun _ -> 200.0)
    ~until:4.0
    (fun () ->
      F.arrive fleet
        ~size:(X.Traffic.draw_size X.Traffic.default_pareto sizes));
  ignore (F.run ~until:1.0 fleet);
  let decisions0 = (F.totals fleet).F.t_executions in
  let recycled = F.arrivals fleet - F.slot_count fleet in
  let before = Gc.minor_words () in
  ignore (F.run ~until:4.0 fleet);
  let words = Gc.minor_words () -. before in
  let decisions = (F.totals fleet).F.t_executions - decisions0 in
  (words, decisions, recycled)

let alloc_suite =
  let open_views =
    Array.init 2 (fun id ->
        { Subflow_view.default with Subflow_view.id; rtt_us = 10_000 * (id + 1) })
  and blocked_views =
    Array.init 2 (fun id ->
        {
          Subflow_view.default with
          Subflow_view.id;
          rtt_us = 10_000 * (id + 1);
          cwnd = 2;
          skbs_in_flight = 2;
        })
  in
  Progmp_compiler.Compile.register_engines ();
  [
    ( "allocation",
      List.concat_map
        (fun engine ->
          List.concat_map
            (fun (name, src) ->
              [
                tc
                  (Fmt.str "%s on %s: 3 words per action" name engine)
                  (fun () ->
                    let words, actions =
                      words_per_execution ~engine src ~views:open_views
                    in
                    Alcotest.(check bool)
                      (Fmt.str "%d actions emitted" actions)
                      true (actions > 0);
                    Alcotest.(check bool)
                      (Fmt.str "%.0f words for %d actions" words actions)
                      true
                      (words <= 3.0 *. float_of_int actions));
                tc
                  (Fmt.str "%s on %s: nothing without actions" name engine)
                  (fun () ->
                    let words, actions =
                      words_per_execution ~engine src ~views:blocked_views
                    in
                    Alcotest.(check int) "no actions" 0 actions;
                    Alcotest.(check (float 0.0)) "words" 0.0 words);
              ])
            [
              ("default", Schedulers.Specs.default);
              ("redundant", Schedulers.Specs.redundant);
            ])
        (Engine.names ())
      @ List.map
          (fun engine ->
            tc
              (Fmt.str "a recycling fleet on %s stays within 20 words a decision"
                 engine)
              (fun () ->
                let words, decisions, recycled =
                  fleet_words_per_decision ~engine
                in
                Alcotest.(check bool)
                  (Fmt.str "slots recycled by second 1 (%d)" recycled)
                  true (recycled > 0);
                Alcotest.(check bool)
                  (Fmt.str "%d decisions" decisions)
                  true (decisions > 1_000);
                let per = words /. float_of_int decisions in
                Alcotest.(check bool)
                  (Fmt.str "%.1f minor words per decision" per)
                  true (per <= 20.0)))
          (Engine.names ())
      @ [
          tc "a tiny interpreter bulk sweep stays within 40 words a decision"
            (fun () ->
              let spec =
                match
                  Mptcp_exp.Spec.parse
                    "scenario bulk\n\
                     scheduler default\n\
                     engine interpreter\n\
                     fleet 1\n\
                     loss 0.02\n\
                     seed 3\n\
                     duration 30\n"
                with
                | Ok s -> s
                | Error msg -> Alcotest.fail msg
              in
              (* the zoo's one-time compilation is set-up, not decisions:
                 done here, it is charged to no decision whichever
                 suites ran before this one *)
              ignore (Schedulers.Specs.load_all ());
              let before = Gc.minor_words () in
              let report =
                match Mptcp_exp.Sweep.execute ~jobs:1 spec with
                | Ok r -> r
                | Error msg -> Alcotest.fail msg
              in
              let words = Gc.minor_words () -. before in
              let decisions =
                List.fold_left
                  (fun n r -> n + r.Mptcp_exp.Sweep.r_executions)
                  0 report.Mptcp_exp.Sweep.runs
              in
              Alcotest.(check bool)
                (Fmt.str "%d decisions" decisions)
                true (decisions > 1_000);
              let per = words /. float_of_int decisions in
              Alcotest.(check bool)
                (Fmt.str "%.1f minor words per decision" per)
                true (per <= 40.0));
        ] );
  ]
