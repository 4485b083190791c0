(** Compiler pipeline tests: register allocation invariants, verifier
    acceptance/rejection, VM fault handling, constant-subflow-count
    specialization, and disassembly. *)

open Progmp_compiler
open Helpers

(* substring containment, used on disassembly text *)
let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let compile_src src =
  Compile.compile (Progmp_lang.Typecheck.compile_source src)

(* Does a helper call sit strictly inside the interval [(s, e)]? Such a
   value must survive the call, which the verifier only allows in
   r6-r9. *)
let crosses_call (vcode : Vcode.t) (s, e) =
  let found = ref false in
  Array.iteri
    (fun pos i ->
      match i with
      | Vcode.Vcall _ when s < pos && pos < e -> found := true
      | _ -> ())
    vcode.Vcode.code;
  !found

(* Allocation invariants, checked over the zoo and random programs:
   no two vregs with overlapping intervals share a register, no
   call-crossing vreg lives in r1-r5, and every used vreg has a home. *)
let check_alloc (vcode : Vcode.t) =
  let alloc = Regalloc.allocate vcode in
  let iv = Vcode.intervals vcode in
  let ok = ref true in
  Array.iteri
    (fun v interval ->
      match (interval, alloc.Regalloc.homes.(v)) with
      | Some _, None -> ok := false (* used but homeless *)
      | None, _ | _, Some (Regalloc.Stack _) -> ()
      | Some (s1, e1), Some (Regalloc.Reg r) ->
          if r < 6 && crosses_call vcode (s1, e1) then ok := false;
          Array.iteri
            (fun w winterval ->
              if w > v then
                match (winterval, alloc.Regalloc.homes.(w)) with
                | Some (s2, e2), Some (Regalloc.Reg r2) when r = r2 ->
                    if not (e1 < s2 || e2 < s1) then ok := false
                | _, _ -> ())
            iv)
    iv;
  !ok

let alloc_random =
  QCheck2.Test.make ~name:"register allocation never double-books" ~count:300
    Gen.gen_program (fun ast ->
      let program = Progmp_lang.Typecheck.check ast in
      check_alloc (Codegen.generate program))

let verify_random =
  QCheck2.Test.make ~name:"compiled random programs verify" ~count:300
    Gen.gen_program (fun ast ->
      let program = Progmp_lang.Typecheck.check ast in
      match Compile.compile program with
      | (_ : Vm.prog) -> true
      | exception Compile.Rejected _ -> false)

(* Emitted-but-unoptimized code for a source program: the middle-end's
   input. *)
let raw_code src =
  let p = Progmp_lang.Typecheck.compile_source src in
  let vcode = Codegen.generate p in
  Emit.emit vcode (Regalloc.allocate vcode)

let verifier_accepts code = Verifier.verify code = []

(* Middle-end contract, over the whole zoo: every pass maps
   verifier-accepted code to verifier-accepted code and is idempotent
   (a second application is the identity). *)
let bopt_suite =
  let over_zoo f =
    List.iter (fun (name, src) -> f name (raw_code src)) Schedulers.Specs.all
  in
  [
    ( "bopt",
      List.map
        (fun (pass_name, pass) ->
          tc (Fmt.str "pass %s: accepted + idempotent on zoo" pass_name)
            (fun () ->
              over_zoo (fun name raw ->
                  let once = pass raw in
                  if not (verifier_accepts once) then
                    Alcotest.failf "%s: %s output rejected by verifier" name
                      pass_name;
                  if pass once <> once then
                    Alcotest.failf "%s: %s is not idempotent" name pass_name)))
        Bopt.passes
      @ [
          tc "full optimize: accepted + idempotent on zoo" (fun () ->
              over_zoo (fun name raw ->
                  let opt = Bopt.optimize raw in
                  if not (verifier_accepts opt) then
                    Alcotest.failf "%s: optimized program rejected" name;
                  if Bopt.optimize opt <> opt then
                    Alcotest.failf "%s: optimize is not idempotent" name));
          tc "optimize shrinks every zoo program" (fun () ->
              over_zoo (fun name raw ->
                  let opt = Bopt.optimize raw in
                  if Array.length opt > Array.length raw then
                    Alcotest.failf "%s: optimize grew %d -> %d" name
                      (Array.length raw) (Array.length opt)));
          QCheck_alcotest.to_alcotest
            (QCheck2.Test.make
               ~name:"passes accepted + idempotent on random programs"
               ~count:100 Gen.gen_program (fun ast ->
                 let p = Progmp_lang.Typecheck.check ast in
                 let vcode = Codegen.generate p in
                 let raw = Emit.emit vcode (Regalloc.allocate vcode) in
                 List.for_all
                   (fun (_, pass) ->
                     let once = pass raw in
                     verifier_accepts once && pass once = once)
                   Bopt.passes
                 &&
                 let opt = Bopt.optimize raw in
                 verifier_accepts opt));
        ] );
  ]

(* [default] on an interpreter scheduler, then installed specialized
   for 2 subflows. The counter records every execution that reaches the
   interpreter it falls back to. *)
let specialized_default () =
  let sched = load_anon Schedulers.Specs.default in
  let interp = sched.Progmp_runtime.Scheduler.run in
  let fallbacks = ref 0 in
  Progmp_runtime.Scheduler.install_custom sched ~name:"interpreter"
    (fun env ->
      incr fallbacks;
      interp env);
  ignore (Compile.install_specialized ~subflow_count:2 sched : Vm.prog);
  (sched, fallbacks)

let three_subflows =
  {
    default_env_spec with
    views =
      default_env_spec.views
      @ [
          {
            Progmp_runtime.Subflow_view.default with
            Progmp_runtime.Subflow_view.id = 2;
            rtt_us = 5_000;
          };
        ];
  }

(* The [bench engines] environment: 64 packets in Q and two subflows
   (10 and 20 ms RTT), congestion-blocked (the scheduler does its whole
   decision and emits nothing) or with open windows (it pushes). *)
let bench_env_spec ~blocked =
  {
    default_env_spec with
    q_seqs = List.init 64 Fun.id;
    views =
      List.init 2 (fun id ->
          let v =
            {
              Progmp_runtime.Subflow_view.default with
              Progmp_runtime.Subflow_view.id;
              rtt_us = 10_000 + (10_000 * id);
            }
          in
          if blocked then { v with cwnd = 2; skbs_in_flight = 2 } else v);
  }

(* Bytecode instructions one decision may execute on the reference VM,
   blocked and pushing: the measured counts plus ~15%. The compiler's
   code quality shows here first — a lowering or allocation regression
   (materialized booleans, per-iteration shifts, spilled loop counters)
   exhausts the budget. *)
let step_budgets =
  [
    ("default", Schedulers.Specs.default, 169, 209);
    ("redundant", Schedulers.Specs.redundant, 53, 113);
    ("round_robin", Schedulers.Specs.round_robin, 105, 112);
  ]

let step_budget_cases =
  List.concat_map
    (fun (name, src, blocked_budget, pushing_budget) ->
      List.map
        (fun (blocked, max_steps) ->
          tc
            (Fmt.str "%s decides in <= %d instructions (%s)" name max_steps
               (if blocked then "blocked" else "pushing"))
            (fun () ->
              let prog =
                Compile.compile
                  (Progmp_lang.Optimize.program
                     (Progmp_lang.Typecheck.compile_source src))
              in
              let env, views = build (bench_env_spec ~blocked) in
              Progmp_runtime.Env.begin_execution env ~subflows:views;
              (match Vm.instantiate ~max_steps prog env with
              | () -> ()
              | exception Vm.Fault msg ->
                  Alcotest.failf "%s: %s within %d steps" name msg max_steps);
              Alcotest.(check bool)
                "pushes iff windows are open" (not blocked)
                (Progmp_runtime.Env.finish_execution env <> [])))
        [ (true, blocked_budget); (false, pushing_budget) ])
    step_budgets

let suite =
  [
    ( "compiler",
      [
        tc "zoo compiles and verifies" (fun () ->
            List.iter (fun (_, src) -> ignore (compile_src src)) Schedulers.Specs.all);
        tc "zoo allocation invariant" (fun () ->
            List.iter
              (fun (name, src) ->
                let p = Progmp_lang.Typecheck.compile_source src in
                if not (check_alloc (Codegen.generate p)) then
                  Alcotest.failf "%s: overlapping intervals share a register"
                    name)
              Schedulers.Specs.all);
        tc "program ends with exit" (fun () ->
            let prog = compile_src "SET(R1, 1);" in
            match prog.Vm.code.(Array.length prog.Vm.code - 1) with
            | Isa.Exit -> ()
            | _ -> Alcotest.fail "last instruction must be Exit");
        tc "disassembly mentions helpers" (fun () ->
            let prog = compile_src Schedulers.Specs.minrtt_minimal in
            let text = Disasm.to_string prog.Vm.code in
            List.iter
              (fun h ->
                if not (contains text h) then
                  Alcotest.failf "disassembly lacks %s" h)
              [ "call  sbf_count"; "call  sbf_prop"; "call  q_remove"; "exit" ]);
        tc "verifier rejects out-of-bounds jump" (fun () ->
            match Verifier.verify [| Isa.Jmp 99 |] with
            | [] -> Alcotest.fail "expected rejection"
            | _ :: _ -> ());
        tc "verifier rejects fallthrough" (fun () ->
            match Verifier.verify [| Isa.Movi (0, 1) |] with
            | [] -> Alcotest.fail "expected rejection"
            | _ :: _ -> ());
        tc "verifier rejects read-before-write" (fun () ->
            match Verifier.verify [| Isa.Mov (0, 6); Isa.Exit |] with
            | [] -> Alcotest.fail "expected rejection"
            | _ :: _ -> ());
        tc "verifier rejects r1-r5 reads after call" (fun () ->
            let code =
              [|
                Isa.Movi (1, 0); Isa.Movi (2, 0); Isa.Call Isa.H_q_nth;
                Isa.Mov (6, 1) (* r1 clobbered by the call *); Isa.Exit;
              |]
            in
            match Verifier.verify code with
            | [] -> Alcotest.fail "expected rejection"
            | _ :: _ -> ());
        tc "verifier accepts r0 result after call" (fun () ->
            let code =
              [| Isa.Call Isa.H_sbf_count; Isa.Mov (6, 0); Isa.Exit |]
            in
            Alcotest.(check int) "no errors" 0 (List.length (Verifier.verify code)));
        tc "verifier rejects bad stack slot" (fun () ->
            match Verifier.verify [| Isa.Stx (9999, 0); Isa.Exit |] with
            | [] -> Alcotest.fail "expected rejection"
            | _ :: _ -> ());
        tc "verifier rejects empty program" (fun () ->
            match Verifier.verify [||] with
            | [] -> Alcotest.fail "expected rejection"
            | _ :: _ -> ());
        tc "verifier rejects call with uninitialized args" (fun () ->
            match Verifier.verify [| Isa.Call Isa.H_q_nth; Isa.Exit |] with
            | [] -> Alcotest.fail "expected rejection"
            | _ :: _ -> ());
        tc "vm step budget faults on infinite loop" (fun () ->
            let prog = Vm.make_prog [| Isa.Jmp 0 |] in
            let env, views = build default_env_spec in
            Progmp_runtime.Env.begin_execution env ~subflows:views;
            match Vm.run ~max_steps:1000 prog env with
            | () -> Alcotest.fail "expected fault"
            | exception Vm.Fault _ -> ());
        tc "vm faults on bad queue code" (fun () ->
            let prog =
              Vm.make_prog
                [|
                  Isa.Movi (1, 7); Isa.Movi (2, 0); Isa.Call Isa.H_q_nth;
                  Isa.Exit;
                |]
            in
            let env, views = build default_env_spec in
            Progmp_runtime.Env.begin_execution env ~subflows:views;
            match Vm.run prog env with
            | () -> Alcotest.fail "expected fault"
            | exception Vm.Fault _ -> ());
        tc "threaded engine faults on bad queue code" (fun () ->
            let run =
              Threaded.instantiate
                (Threaded.compile
                   [|
                     Isa.Movi (1, 7); Isa.Movi (2, 0); Isa.Call Isa.H_q_nth;
                     Isa.Exit;
                   |])
            in
            let env, views = build default_env_spec in
            Progmp_runtime.Env.begin_execution env ~subflows:views;
            match run env with
            | () -> Alcotest.fail "expected fault"
            | exception Vm.Fault _ -> ());
        tc "specialization agrees on matching subflow count" (fun () ->
            let program =
              Progmp_lang.Typecheck.compile_source Schedulers.Specs.default
            in
            let spec_prog = Compile.compile ~subflow_count:2 program in
            let gen_prog = Compile.compile program in
            let run prog =
              let env, views = build default_env_spec in
              Progmp_runtime.Env.begin_execution env ~subflows:views;
              Vm.run prog env;
              List.map norm_action (Progmp_runtime.Env.finish_execution env)
            in
            Alcotest.(check (list norm_testable))
              "same actions" (run gen_prog) (run spec_prog));
        tc "specialized engine falls back on count mismatch" (fun () ->
            let sched = load_anon Schedulers.Specs.minrtt_minimal in
            let interp_called = ref false in
            let prog =
              Compile.compile ~subflow_count:5
                sched.Progmp_runtime.Scheduler.program
            in
            let engine =
              Compile.engine ~fallback:(fun _ -> interp_called := true) prog
            in
            let env, views = build default_env_spec (* 2 subflows <> 5 *) in
            Progmp_runtime.Env.begin_execution env ~subflows:views;
            engine env;
            Alcotest.(check bool) "fell back" true !interp_called);
        tc "installed specialization matches the generic engine on 2 subflows"
          (fun () ->
            let sched, fallbacks = specialized_default () in
            Alcotest.(check string)
              "engine label" "threaded[2]"
              (Progmp_runtime.Scheduler.engine_label sched);
            let ((tape, _, _) as got) = run_once sched default_env_spec in
            Alcotest.(check bool) "decides something" true (tape <> []);
            Alcotest.(check bool)
              "tape, queues and registers" true
              (got = run_once (load_anon Schedulers.Specs.default)
                       default_env_spec);
            Alcotest.(check int) "no fallback" 0 !fallbacks);
        tc "installed specialization falls back on 3 subflows and matches"
          (fun () ->
            let sched, fallbacks = specialized_default () in
            let ((tape, _, _) as got) = run_once sched three_subflows in
            Alcotest.(check bool) "decides something" true (tape <> []);
            Alcotest.(check bool)
              "tape, queues and registers" true
              (got = run_once (load_anon Schedulers.Specs.default)
                       three_subflows);
            Alcotest.(check int) "fell back once" 1 !fallbacks);
        tc "registry selection swaps in the threaded engine" (fun () ->
            Compile.register_engines ();
            let sched = load_anon Schedulers.Specs.minrtt_minimal in
            Progmp_runtime.Scheduler.set_engine sched "threaded";
            Alcotest.(check string)
              "engine label" "threaded"
              (Progmp_runtime.Scheduler.engine_label sched));
        tc "negative subflow count is rejected" (fun () ->
            let program =
              Progmp_lang.Typecheck.compile_source Schedulers.Specs.default
            in
            (match Compile.compile ~subflow_count:(-1) program with
            | (_ : Vm.prog) -> Alcotest.fail "expected Invalid_argument"
            | exception Invalid_argument _ -> ());
            ignore (Compile.compile ~subflow_count:0 program : Vm.prog));
        tc "engine registry is aot, interpreter, threaded" (fun () ->
            Compile.register_engines ();
            Alcotest.(check (list string))
              "engines"
              [ "aot"; "interpreter"; "threaded" ]
              (Progmp_runtime.Engine.names ()));
        tc "compile stats are sane" (fun () ->
            let program =
              Progmp_lang.Typecheck.compile_source Schedulers.Specs.default
            in
            let _, stats = Compile.compile_with_stats program in
            Alcotest.(check bool) "instrs > vinstrs / 2" true
              (stats.Compile.instrs > stats.Compile.vinstrs / 2);
            Alcotest.(check bool) "spill slots bounded" true
              (stats.Compile.spill_slots < Isa.stack_words));
        QCheck_alcotest.to_alcotest alloc_random;
        QCheck_alcotest.to_alcotest verify_random;
      ]
      @ step_budget_cases );
  ]

(* ------------------------------------------------------------------ *)
(* Middle-end semantics, and the threaded engine against the boxed VM. *)
(* ------------------------------------------------------------------ *)

(* Observable outcome of one execution of [run] on a fresh environment
   built from [spec]: action tape, queue contents and register file —
   the yardstick for "the middle-end preserved the semantics". *)
let observe ?(spec = default_env_spec) run =
  let env, views = build spec in
  Progmp_runtime.Env.begin_execution env ~subflows:views;
  run env;
  ( List.map norm_action (Progmp_runtime.Env.finish_execution env),
    ( seqs_of env.Progmp_runtime.Env.q,
      seqs_of env.Progmp_runtime.Env.qu,
      seqs_of env.Progmp_runtime.Env.rq ),
    Array.to_list env.Progmp_runtime.Env.registers )

(* [code] on the boxed VM (the bounds-checked reference path). *)
let run_code ?spec code =
  observe ?spec (Vm.run (Vm.make_prog code))

(* Verifier-accepted [code] on the threaded engine. *)
let run_threaded ?spec code =
  observe ?spec (Threaded.instantiate (Threaded.compile code))

(* The whole middle-end preserves behaviour: raw emit output and its
   optimized form agree on the boxed VM. *)
let optimize_agrees ~spec raw =
  let opt = Bopt.optimize raw in
  verifier_accepts opt && run_code ~spec raw = run_code ~spec opt

(* Identical optimized code runs the same on the boxed VM and the
   threaded engine. *)
let boxed_agrees_with_threaded ~spec raw =
  let opt = Bopt.optimize raw in
  verifier_accepts opt && run_code ~spec opt = run_threaded ~spec opt

(* A fixed sample of random environments for the zoo checks. *)
let zoo_env_specs =
  default_env_spec
  :: QCheck2.Gen.generate ~n:16
       ~rand:(Random.State.make [| 15 |])
       Gen.gen_env_spec

(* [agrees] holds for every zoo program on every sampled environment. *)
let over_zoo_envs agrees =
  List.iter
    (fun (name, src) ->
      let raw = raw_code src in
      List.iteri
        (fun i spec ->
          if not (agrees ~spec raw) then
            Alcotest.failf "%s: diverged on environment %d" name i)
        zoo_env_specs)
    Schedulers.Specs.all

let random_agrees name agrees =
  QCheck2.Test.make ~name ~count:200
    QCheck2.Gen.(pair Gen.gen_program Gen.gen_env_spec)
    (fun (ast, spec) ->
      let p = Progmp_lang.Typecheck.check ast in
      let vcode = Codegen.generate p in
      agrees ~spec (Emit.emit vcode (Regalloc.allocate vcode)))

let is_superinstruction = function
  | Isa.CallJcci _ | Isa.LdxJcci _ | Isa.LdxJcc _ -> true
  | _ -> false

let middle_end_suite =
  [
    ( "middle-end",
      [
        tc "optimized zoo: behaviour-preserving" (fun () ->
            over_zoo_envs optimize_agrees);
        tc "optimized zoo: boxed = threaded" (fun () ->
            over_zoo_envs boxed_agrees_with_threaded);
        tc "fused zoo: accepted and behaviour-preserving" (fun () ->
            over_zoo_envs (fun ~spec raw ->
                let fused = Bopt.fuse raw in
                verifier_accepts fused
                && run_code ~spec raw = run_code ~spec fused));
        tc "optimize forms superinstructions on a loopy scheduler" (fun () ->
            let opt = Bopt.optimize (raw_code Schedulers.Specs.round_robin) in
            Alcotest.(check bool)
              "has a superinstruction" true
              (Array.exists is_superinstruction opt));
        tc "threaded engine charges the step budget" (fun () ->
            let run =
              Threaded.instantiate
                (Threaded.compile ~max_steps:100 [| Isa.Jmp 0 |])
            in
            let env, views = build default_env_spec in
            Progmp_runtime.Env.begin_execution env ~subflows:views;
            match run env with
            | () -> Alcotest.fail "expected a step-budget fault"
            | exception Vm.Fault _ -> ());
        QCheck_alcotest.to_alcotest
          (random_agrees "optimize: accepted, behaviour-preserving"
             optimize_agrees);
        QCheck_alcotest.to_alcotest
          (random_agrees "optimized random programs: boxed = threaded"
             boxed_agrees_with_threaded);
        tc "copy propagation keeps a compare operand its fused load \
            overwrites" (fun () ->
            (* r5 copies a helper result in r0, then the fused load
               overwrites r0 before the comparison: rewriting the operand
               to its copy source r0 would compare the loaded value with
               itself *)
            let code =
              [|
                Isa.Movi (6, 9); Isa.Stx (0, 6); Isa.Call Isa.H_sbf_count;
                Isa.Mov (5, 0); Isa.LdxJcc (Isa.Jlt, 5, 0, 0, 9);
                Isa.Movi (1, 1); Isa.Movi (2, 0); Isa.Call Isa.H_set_reg;
                Isa.Exit; Isa.Movi (1, 1); Isa.Movi (2, 1);
                Isa.Call Isa.H_set_reg; Isa.Exit;
              |]
            in
            let opt = Bopt.propagate_copies code in
            Alcotest.(check bool) "accepted" true (verifier_accepts opt);
            Alcotest.(check bool)
              "same registers" true
              (run_code code = run_code opt));
      ] );
  ]

(* Targeted register-allocator tests on synthetic virtual code. *)
let regalloc_suite =
  [
    ( "regalloc",
      [
        tc "second chance re-promotes a spilled interval into a gap"
          (fun () ->
            (* Five long overlapping intervals cross a helper call, so
               only the four callee-saved registers r6-r9 qualify and one
               of the five must spill; a later short interval must still
               get a register because every register is free again after
               position 10. *)
            let b = Vcode.create_builder ~reserved_vregs:0 in
            let v = Array.init 6 (fun _ -> Vcode.fresh_vreg b) in
            (* defs for v0..v4 at positions 0..4 *)
            for i = 0 to 4 do
              Vcode.emit b (Vcode.Vmovi (v.(i), i))
            done;
            Vcode.emit b (Vcode.Vcall (Isa.H_sbf_count, [], None));
            (* uses of v0..v4 at positions 6..10: all five live at once,
               across the call *)
            for i = 0 to 4 do
              Vcode.emit b (Vcode.Valui (Isa.Add, v.(i), v.(i), 1))
            done;
            (* a late, short-lived interval *)
            Vcode.emit b (Vcode.Vmovi (v.(5), 9));
            Vcode.emit b (Vcode.Valui (Isa.Add, v.(5), v.(5), 1));
            Vcode.emit b Vcode.Vexit;
            let code = Vcode.finish b ~num_vregs:6 in
            let alloc = Regalloc.allocate code in
            let regs, stacks =
              Array.fold_left
                (fun (r, s) home ->
                  match home with
                  | Some (Regalloc.Reg _) -> (r + 1, s)
                  | Some (Regalloc.Stack _) -> (r, s + 1)
                  | None -> (r, s))
                (0, 0) alloc.Regalloc.homes
            in
            Alcotest.(check int) "one spilled of six" 1 stacks;
            Alcotest.(check int) "five in registers" 5 regs;
            (* the late interval must be register-allocated (first pass or
               second chance) *)
            match alloc.Regalloc.homes.(5) with
            | Some (Regalloc.Reg _) -> ()
            | _ -> Alcotest.fail "late interval should sit in a register");
        tc "loop extension keeps loop-carried values apart" (fun () ->
            (* v0 is defined before a loop and used inside it: its interval
               must extend to the loop end, so a vreg defined inside the
               loop must not share its register. *)
            let b = Vcode.create_builder ~reserved_vregs:0 in
            let v0 = Vcode.fresh_vreg b in
            let v1 = Vcode.fresh_vreg b in
            Vcode.emit b (Vcode.Vmovi (v0, 7));
            let l = Vcode.fresh_label b in
            let start = Vcode.here b in
            Vcode.emit b (Vcode.Vlabel l);
            Vcode.emit b (Vcode.Valui (Isa.Add, v1, v0, 1));
            Vcode.emit b (Vcode.Vjcci (Isa.Jne, v1, 0, l));
            Vcode.record_loop b ~start ~stop:(Vcode.here b);
            Vcode.emit b Vcode.Vexit;
            let code = Vcode.finish b ~num_vregs:2 in
            let iv = Vcode.intervals code in
            (match (iv.(0), iv.(1)) with
            | Some (_, e0), Some (s1, _) ->
                Alcotest.(check bool)
                  (Fmt.str "v0 end %d covers v1 start %d" e0 s1)
                  true (e0 >= s1)
            | _ -> Alcotest.fail "missing intervals");
            let alloc = Regalloc.allocate code in
            match (alloc.Regalloc.homes.(0), alloc.Regalloc.homes.(1)) with
            | Some (Regalloc.Reg a), Some (Regalloc.Reg b') ->
                Alcotest.(check bool) "distinct registers" true (a <> b')
            | _ -> Alcotest.fail "expected register homes");
        tc "a call-crossing interval is never homed in r1-r5" (fun () ->
            (* v0 lives across a call, v1 and v2 do not: with every
               register free, v0 still takes a callee-saved one while the
               call-free values may use r3-r5. *)
            let b = Vcode.create_builder ~reserved_vregs:0 in
            let v0 = Vcode.fresh_vreg b in
            let v1 = Vcode.fresh_vreg b in
            let v2 = Vcode.fresh_vreg b in
            Vcode.emit b (Vcode.Vmovi (v0, 7));
            Vcode.emit b (Vcode.Vcall (Isa.H_sbf_count, [], Some v1));
            Vcode.emit b (Vcode.Valu (Isa.Add, v2, v0, v1));
            Vcode.emit b (Vcode.Vcall (Isa.H_get_reg, [ v2 ], None));
            Vcode.emit b Vcode.Vexit;
            let code = Vcode.finish b ~num_vregs:3 in
            let alloc = Regalloc.allocate code in
            (match alloc.Regalloc.homes.(v0) with
            | Some (Regalloc.Reg r) when r >= 6 && r <= 9 -> ()
            | Some h ->
                Alcotest.failf "v0 crosses a call but lives in %a"
                  Regalloc.pp_home h
            | None -> Alcotest.fail "v0 has no home");
            List.iter
              (fun v ->
                match alloc.Regalloc.homes.(v) with
                | Some (Regalloc.Reg r) when r >= 3 && r <= 5 -> ()
                | Some h ->
                    Alcotest.failf "call-free v%d lives in %a, not r3-r5" v
                      Regalloc.pp_home h
                | None -> Alcotest.failf "v%d has no home" v)
              [ v1; v2 ]);
        tc "a loop-carried vreg keeps its register over a value used once"
          (fun () ->
            (* v0 is defined first and read once after a loop; v1..v4 are
               carried around the loop, whose body calls a helper, and
               read after v0 is. Five call-crossing values compete for
               r6-r9: v0 ends first but weighs least (two occurrences
               outside any loop), so v0 is the one that spills. *)
            let b = Vcode.create_builder ~reserved_vregs:0 in
            let v = Array.init 6 (fun _ -> Vcode.fresh_vreg b) in
            Vcode.emit b (Vcode.Vmovi (v.(0), 42));
            for i = 1 to 4 do
              Vcode.emit b (Vcode.Vmovi (v.(i), 0))
            done;
            let l = Vcode.fresh_label b in
            let start = Vcode.here b in
            Vcode.emit b (Vcode.Vlabel l);
            Vcode.emit b (Vcode.Vcall (Isa.H_sbf_count, [], None));
            for i = 1 to 4 do
              Vcode.emit b (Vcode.Valui (Isa.Add, v.(i), v.(i), 1))
            done;
            Vcode.emit b (Vcode.Vjcci (Isa.Jlt, v.(1), 10, l));
            Vcode.record_loop b ~start ~stop:(Vcode.here b);
            Vcode.emit b (Vcode.Valui (Isa.Add, v.(5), v.(0), 1));
            for i = 1 to 4 do
              Vcode.emit b (Vcode.Valu (Isa.Add, v.(5), v.(5), v.(i)))
            done;
            Vcode.emit b Vcode.Vexit;
            let code = Vcode.finish b ~num_vregs:6 in
            let alloc = Regalloc.allocate code in
            (match alloc.Regalloc.homes.(v.(0)) with
            | Some (Regalloc.Stack _) -> ()
            | _ -> Alcotest.fail "the value used once should spill");
            for i = 1 to 4 do
              match alloc.Regalloc.homes.(v.(i)) with
              | Some (Regalloc.Reg _) -> ()
              | _ -> Alcotest.failf "loop-carried v%d should keep a register" i
            done);
      ] );
  ]
