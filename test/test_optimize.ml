(** Optimizer tests: folding rules on crafted programs, plus the
    semantics-preservation property — optimized and unoptimized programs
    behave identically on random environments. *)

open Progmp_lang
open Helpers

let opt src = Optimize.program (Typecheck.compile_source src)

let stmt_count p = List.length p.Tast.body

(* Count nodes of the whole program, for shrinkage assertions. *)
let node_count p =
  Tast.fold_stmts (fun acc _ -> acc + 1) 0 p.Tast.body

let suite_cases =
  [
    tc "constant condition inlines the branch" (fun () ->
        let p = opt "IF (1 < 2) { SET(R1, 1); } ELSE { SET(R1, 2); }" in
        match p.Tast.body with
        | [ Tast.If ({ Tast.desc = Tast.Bool_lit true; _ }, [ Tast.Set_register (0, _) ], []) ] ->
            ()
        | _ -> Alcotest.fail "expected folded IF with only the then-branch");
    tc "false condition keeps only the else branch" (fun () ->
        let p = opt "IF (2 < 1) { SET(R1, 1); } ELSE { SET(R1, 2); }" in
        match p.Tast.body with
        | [ Tast.If (_, [], [ Tast.Set_register (0, e) ]) ] -> (
            match e.Tast.desc with
            | Tast.Int_lit 2 -> ()
            | _ -> Alcotest.fail "wrong else content")
        | _ -> Alcotest.fail "expected else-only IF");
    tc "false condition with no else vanishes" (fun () ->
        let p = opt "IF (FALSE) { SET(R1, 1); }" in
        Alcotest.(check int) "no statements" 0 (stmt_count p));
    tc "empty if with pure condition vanishes" (fun () ->
        let p = opt "IF (Q.EMPTY) { IF (FALSE) { SET(R1, 1); } }" in
        Alcotest.(check int) "no statements" 0 (stmt_count p));
    tc "arithmetic folds" (fun () ->
        let p = opt "SET(R1, 2 * 3 + 10 / 2 - 1);" in
        match p.Tast.body with
        | [ Tast.Set_register (0, { Tast.desc = Tast.Int_lit 10; _ }) ] -> ()
        | _ -> Alcotest.fail "expected folded constant 10");
    tc "division by zero folds to zero" (fun () ->
        let p = opt "SET(R1, 7 / 0 + 7 % 0);" in
        match p.Tast.body with
        | [ Tast.Set_register (0, { Tast.desc = Tast.Int_lit 0; _ }) ] -> ()
        | _ -> Alcotest.fail "expected 0");
    tc "identity operations simplify" (fun () ->
        let p = opt "SET(R1, (R2 + 0) * 1);" in
        match p.Tast.body with
        | [ Tast.Set_register (0, { Tast.desc = Tast.Register 1; _ }) ] -> ()
        | _ -> Alcotest.fail "expected bare register read");
    tc "boolean short circuits simplify" (fun () ->
        let p = opt "IF (TRUE AND Q.EMPTY OR FALSE) { SET(R1, 1); }" in
        match p.Tast.body with
        | [ Tast.If ({ Tast.desc = Tast.Q_empty _; _ }, _, []) ] -> ()
        | _ -> Alcotest.fail "expected condition reduced to Q.EMPTY");
    tc "double negation cancels" (fun () ->
        let p = opt "IF (!!Q.EMPTY) { SET(R1, 1); }" in
        match p.Tast.body with
        | [ Tast.If ({ Tast.desc = Tast.Q_empty _; _ }, _, _) ] -> ()
        | _ -> Alcotest.fail "expected bare Q.EMPTY");
    tc "statements after return are dropped" (fun () ->
        let p = opt "SET(R1, 1); RETURN; SET(R2, 2); SET(R3, 3);" in
        Alcotest.(check int) "two statements" 2 (stmt_count p));
    tc "always-true filters are dropped from views" (fun () ->
        let p = opt "SET(R1, Q.FILTER(p => TRUE).FILTER(q => q.SIZE > 0).COUNT);" in
        match p.Tast.body with
        | [ Tast.Set_register (0, { Tast.desc = Tast.Q_count view; _ }) ] ->
            Alcotest.(check int) "one filter left" 1
              (List.length view.Tast.filters)
        | _ -> Alcotest.fail "expected count over view");
    tc "optimization never grows the zoo" (fun () ->
        List.iter
          (fun (name, src) ->
            let p = Typecheck.compile_source src in
            let p' = Optimize.program p in
            if node_count p' > node_count p then
              Alcotest.failf "%s grew under optimization" name)
          Schedulers.Specs.all);
    tc "pop in an if-less statement is preserved" (fun () ->
        (* DROP(Q.POP()) must survive even though its value is unused *)
        let p = opt "DROP(Q.POP());" in
        Alcotest.(check int) "kept" 1 (stmt_count p));
  ]

(* Property: optimized program ≡ original program on random envs. *)
let preservation =
  QCheck2.Test.make ~name:"optimization preserves semantics" ~count:500
    (QCheck2.Gen.pair Gen.gen_program Gen.gen_env_spec)
    (fun (ast, spec) ->
      let p = Typecheck.check ast in
      let p' = Optimize.program p in
      let observe program =
        let env, views = build spec in
        Progmp_runtime.Env.begin_execution env ~subflows:views;
        Progmp_runtime.Interpreter.instantiate program env;
        let actions =
          List.map norm_action (Progmp_runtime.Env.finish_execution env)
        in
        ( actions,
          seqs_of env.Progmp_runtime.Env.q,
          seqs_of env.Progmp_runtime.Env.qu,
          Array.to_list env.Progmp_runtime.Env.registers )
      in
      observe p = observe p')

let suite =
  [ ("optimize", suite_cases @ [ QCheck_alcotest.to_alcotest preservation ]) ]
