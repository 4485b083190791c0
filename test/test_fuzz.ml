(** Robustness fuzzing: arbitrary input never crashes the toolchain —
    the frontend either produces a program or raises one of its three
    documented, located errors; printable garbage, truncations and
    mutations of valid specifications are all handled.

    Beyond crash-freedom, every program the verifier accepts is run
    through {e all} registered execution backends on the same
    environment — the action tapes must agree instruction-for-
    instruction — and through a full simulation under a Gilbert–Elliott
    burst-loss episode plus a WiFi-style link flap, where the engines
    must produce identical delivery fingerprints. *)

open Progmp_lang
open Helpers

let load_or_error src =
  match Typecheck.compile_source src with
  | (_ : Tast.program) -> true
  | exception Lexer.Error (_, _) -> true
  | exception Parser.Error (_, _) -> true
  | exception Typecheck.Error (_, _) -> true

(* Arbitrary printable strings. *)
let gen_garbage =
  QCheck2.Gen.(string_size ~gen:(map Char.chr (int_range 32 126)) (int_bound 200))

let fuzz_garbage =
  QCheck2.Test.make ~name:"frontend survives printable garbage" ~count:2000
    gen_garbage load_or_error

(* Token soup: random sequences of valid lexemes stress the parser. *)
let lexemes =
  [|
    "IF"; "ELSE"; "VAR"; "FOREACH"; "IN"; "SET"; "DROP"; "RETURN"; "TRUE";
    "FALSE"; "NULL"; "Q"; "QU"; "RQ"; "SUBFLOWS"; "AND"; "OR"; "R1"; "R2";
    "sbf"; "skb"; "x"; "42"; "0"; "=>"; "."; ","; ";"; "("; ")"; "{"; "}";
    "="; "=="; "!="; "<"; "<="; ">"; ">="; "+"; "-"; "*"; "/"; "%"; "!";
    "RTT"; "CWND"; "FILTER"; "MIN"; "MAX"; "TOP"; "POP"; "PUSH"; "EMPTY";
    "COUNT";
  |]

let gen_token_soup =
  QCheck2.Gen.(
    map (String.concat " ")
      (list_size (int_bound 60) (oneofl (Array.to_list lexemes))))

let fuzz_soup =
  QCheck2.Test.make ~name:"frontend survives token soup" ~count:2000
    gen_token_soup load_or_error

(* Mutations of valid specifications: delete/duplicate a random chunk. *)
let gen_mutant =
  let open QCheck2.Gen in
  let* _, src = oneofl Schedulers.Specs.all in
  let* pos = int_bound (max 1 (String.length src - 1)) in
  let* len = int_bound 20 in
  let* mode = bool in
  let len = min len (String.length src - pos) in
  if mode then
    (* delete *)
    return (String.sub src 0 pos ^ String.sub src (pos + len) (String.length src - pos - len))
  else
    (* duplicate *)
    return (String.sub src 0 (pos + len) ^ String.sub src pos (String.length src - pos))

let fuzz_mutants =
  QCheck2.Test.make ~name:"frontend survives mutated zoo specs" ~count:2000
    gen_mutant load_or_error

(* Whatever parses and checks must also compile, verify and execute
   without OCaml-level exceptions, on the reference VM and on the
   threaded engine. *)
let fuzz_full_pipeline =
  QCheck2.Test.make ~name:"checked mutants run on all backends" ~count:500
    gen_mutant (fun src ->
      match Typecheck.compile_source src with
      | exception (Lexer.Error _ | Parser.Error _ | Typecheck.Error _) -> true
      | program -> (
          let program = Optimize.program program in
          let env, views = build default_env_spec in
          Progmp_runtime.Env.begin_execution env ~subflows:views;
          Progmp_runtime.Interpreter.run program env;
          ignore (Progmp_runtime.Env.finish_execution env);
          match Progmp_compiler.Compile.compile program with
          | prog ->
              let env2, views2 = build default_env_spec in
              Progmp_runtime.Env.begin_execution env2 ~subflows:views2;
              Progmp_compiler.Vm.run prog env2;
              ignore (Progmp_runtime.Env.finish_execution env2);
              let env3, views3 = build default_env_spec in
              Progmp_runtime.Env.begin_execution env3 ~subflows:views3;
              Progmp_compiler.(
                Threaded.instantiate (Threaded.compile prog.Vm.code) env3);
              ignore (Progmp_runtime.Env.finish_execution env3);
              true
          | exception Progmp_compiler.Compile.Rejected _ -> false))

(* ------------------------------------------------------------------ *)
(* Cross-engine differential fuzzing: any program the verifier accepts
   must behave identically on every registered backend.               *)
(* ------------------------------------------------------------------ *)

let () = Progmp_compiler.Compile.register_engines ()

(* The observable state one engine execution leaves behind: the action
   tape plus the queues and register file (a faster engine silently
   corrupting state it does not report through actions must not
   escape). *)
let observe engine program spec =
  let env, views = build spec in
  Progmp_runtime.Env.begin_execution env ~subflows:views;
  let outcome =
    match engine env with
    | () -> Ok ()
    | exception Progmp_compiler.Vm.Fault m -> Error m
  in
  let actions =
    List.map norm_action (Progmp_runtime.Env.finish_execution env)
  in
  ( outcome, actions,
    (seqs_of env.Progmp_runtime.Env.q, seqs_of env.Progmp_runtime.Env.qu,
     seqs_of env.Progmp_runtime.Env.rq),
    Array.to_list env.Progmp_runtime.Env.registers )
  [@@warning "-27"]

(* Verifier-accepted programs from two sources — mutated zoo specs and
   the grammar-directed generator — run on every [Engine.names ()]
   backend; the tapes must be pairwise identical. *)
let tapes_agree program =
  let engines =
    List.map
      (fun name -> (name, Progmp_runtime.Engine.instantiate name program))
      (Progmp_runtime.Engine.names ())
  in
  match engines with
  | [] -> true
  | (ref_name, ref_engine) :: rest ->
      let reference = observe ref_engine program default_env_spec in
      List.for_all
        (fun (name, engine) ->
          let o = observe engine program default_env_spec in
          if o = reference then true
          else
            QCheck2.Test.fail_reportf "engine %s disagrees with %s" name
              ref_name)
        rest

let fuzz_engine_tapes_mutants =
  QCheck2.Test.make
    ~name:"accepted mutants: identical action tapes on every engine"
    ~count:300 gen_mutant (fun src ->
      match Typecheck.compile_source src with
      | exception (Lexer.Error _ | Parser.Error _ | Typecheck.Error _) -> true
      | program -> (
          match Progmp_compiler.Compile.compile program with
          | exception Progmp_compiler.Compile.Rejected _ -> true
          | (_ : Progmp_compiler.Vm.prog) -> tapes_agree program))

let fuzz_engine_tapes_random =
  QCheck2.Test.make
    ~name:"random programs: identical action tapes on every engine"
    ~count:300 Gen.gen_program (fun ast ->
      match Typecheck.check ast with
      | exception Typecheck.Error _ -> true
      | program -> (
          match Progmp_compiler.Compile.compile program with
          | exception Progmp_compiler.Compile.Rejected _ -> true
          | (_ : Progmp_compiler.Vm.prog) -> tapes_agree program))

(* Fault-injected differential: the same random scheduler drives a whole
   simulated connection through a Gilbert–Elliott burst-loss episode on
   one path while the other flaps WiFi-style; every engine must leave
   the identical delivery fingerprint. The scheduler reaches the
   simulator the way applications ship one: as source text, so this
   also exercises the pretty-printer round trip. *)
let fault_script =
  let open Mptcp_sim in
  Faults.flap ~start:0.2 ~period:0.8 ~down_for:0.25 ~until:2.5 "wifi"
  @ [
      Faults.step ~at:0.3 "lte"
        (Faults.Loss_burst { p_enter = 0.2; p_exit = 0.4; loss_bad = 0.6 });
      Faults.step ~at:1.8 "lte" Faults.Loss_model_reset;
    ]

let sim_fingerprint src ~engine =
  let open Mptcp_sim in
  let sched =
    Progmp_runtime.Scheduler.of_source
      ~name:(Fmt.str "fuzzdiff-%s" engine)
      src
  in
  Progmp_runtime.Scheduler.set_engine sched engine;
  let paths = Apps.Scenario.wifi_lte () in
  let conn = Connection.create ~seed:23 ~paths () in
  (Connection.sock conn).Progmp_runtime.Api.scheduler <- sched;
  Faults.apply conn fault_script;
  let order = ref [] in
  conn.Connection.meta.Meta_socket.on_deliver <-
    (fun ~seq ~size:_ ~time:_ -> order := seq :: !order);
  Connection.write_at conn ~time:0.1 60_000;
  Connection.run ~until:120.0 conn;
  let meta = conn.Connection.meta in
  ( List.rev !order,
    Connection.delivered_bytes conn,
    ( meta.Meta_socket.pushes, meta.Meta_socket.drops,
      meta.Meta_socket.sched_executions ),
    List.map
      (fun m ->
        let s = m.Path_manager.subflow in
        ( s.Tcp_subflow.segs_sent, s.Tcp_subflow.segs_retx,
          s.Tcp_subflow.bytes_acked ))
      conn.Connection.paths )

let fuzz_fault_differential =
  QCheck2.Test.make
    ~name:"random programs under burst loss + flap: engines agree"
    ~count:12 Gen.gen_program (fun ast ->
      match Typecheck.check ast with
      | exception Typecheck.Error _ -> true
      | program -> (
          match Progmp_compiler.Compile.compile program with
          | exception Progmp_compiler.Compile.Rejected _ -> true
          | (_ : Progmp_compiler.Vm.prog) -> (
              let src = Pretty.program_to_string ast in
              match
                Progmp_runtime.Scheduler.of_source ~name:"fuzzdiff" src
              with
              | exception Progmp_runtime.Scheduler.Load_error _ ->
                  ignore program;
                  true
              | (_ : Progmp_runtime.Scheduler.t) -> (
                  match
                    List.map
                      (fun e -> sim_fingerprint src ~engine:e)
                      (Progmp_runtime.Engine.names ())
                  with
                  | [] -> true
                  | reference :: rest ->
                      List.for_all (( = ) reference) rest))))

let suite =
  [
    ( "fuzz",
      [
        QCheck_alcotest.to_alcotest fuzz_garbage;
        QCheck_alcotest.to_alcotest fuzz_soup;
        QCheck_alcotest.to_alcotest fuzz_mutants;
        QCheck_alcotest.to_alcotest fuzz_full_pipeline;
      ] );
    ( "fuzz-differential",
      [
        QCheck_alcotest.to_alcotest fuzz_engine_tapes_mutants;
        QCheck_alcotest.to_alcotest fuzz_engine_tapes_random;
        QCheck_alcotest.to_alcotest fuzz_fault_differential;
      ] );
  ]
