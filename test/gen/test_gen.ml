(** Differential test of the source-generating AOT backend: the modules
    [Gen_*] in this directory are OCaml engines generated at build time
    (see the dune rules) from ProgMP specifications; each must behave
    exactly like the interpreter on the same environments. *)

open Progmp_runtime

type env_spec = {
  q_seqs : int list;
  qu_seqs : (int * int list) list;
  views : Subflow_view.t list;
  regs : (int * int) list;
}

let build spec =
  let env = Env.create () in
  let mk seq = Packet.create ~seq ~size:1448 ~now:0.0 () in
  List.iter (fun seq -> Pqueue.push_back env.Env.q (mk seq)) spec.q_seqs;
  List.iter
    (fun (seq, sent_on) ->
      let p = mk seq in
      List.iter (fun sbf_id -> Packet.mark_sent p ~sbf_id) sent_on;
      Pqueue.push_back env.Env.qu p)
    spec.qu_seqs;
  List.iter (fun (r, v) -> Env.set_register env r v) spec.regs;
  (env, Array.of_list spec.views)

let v ?(backup = false) ?(cwnd = 10) ?(inflight = 0) id rtt =
  {
    Subflow_view.default with
    Subflow_view.id;
    rtt_us = rtt;
    cwnd;
    skbs_in_flight = inflight;
    is_backup = backup;
  }

let specs =
  [
    { q_seqs = [ 0; 1; 2 ]; qu_seqs = []; views = [ v 0 40_000; v 1 10_000 ]; regs = [] };
    { q_seqs = []; qu_seqs = [ (7, [ 0 ]) ]; views = [ v 0 40_000; v 1 10_000 ]; regs = [ (1, 1) ] };
    { q_seqs = [ 0 ]; qu_seqs = [ (5, [ 1 ]) ];
      views = [ v ~cwnd:2 ~inflight:2 0 10_000; v 1 20_000; v ~backup:true 2 5_000 ];
      regs = [ (2, 1) ] };
    { q_seqs = []; qu_seqs = []; views = []; regs = [] };
  ]

let norm actions =
  List.map
    (function
      | Action.Push { sbf_id; pkt } -> `Push (sbf_id, pkt.Packet.seq)
      | Action.Drop pkt -> `Drop pkt.Packet.seq)
    actions

let observe engine spec =
  let env, views = build spec in
  Env.begin_execution env ~subflows:views;
  engine env;
  let actions = norm (Env.finish_execution env) in
  let seqs q = List.map (fun p -> p.Packet.seq) (Pqueue.to_list q) in
  (actions, seqs env.Env.q, seqs env.Env.qu, Array.to_list env.Env.registers)

let check_same name src engine =
  let program = Progmp_lang.Typecheck.compile_source src in
  List.iteri
    (fun i spec ->
      let reference = observe (Interpreter.instantiate program) spec in
      let got = observe engine spec in
      if reference <> got then
        Alcotest.failf "%s: generated engine diverges on environment %d" name i)
    specs

let () =
  Alcotest.run "generated-engines"
    [
      ( "source-gen",
        [
          Alcotest.test_case "minrtt" `Quick (fun () ->
              check_same "minrtt" Schedulers.Specs.minrtt_minimal
                Gen_minrtt.engine);
          Alcotest.test_case "round robin (3 executions)" `Quick (fun () ->
              check_same "round_robin" Schedulers.Specs.round_robin
                Gen_round_robin.engine);
          Alcotest.test_case "redundant_if_no_q" `Quick (fun () ->
              check_same "redundant_if_no_q" Schedulers.Specs.redundant_if_no_q
                Gen_redundant.engine);
          Alcotest.test_case "compensating" `Quick (fun () ->
              check_same "compensating" Schedulers.Specs.compensating
                Gen_compensating.engine);
          Alcotest.test_case "generated engine installs as a backend" `Quick
            (fun () ->
              let sched =
                Scheduler.of_source ~name:"gen" Schedulers.Specs.minrtt_minimal
              in
              Scheduler.install_custom sched ~name:"generated-ocaml"
                Gen_minrtt.engine;
              let env, views = build (List.hd specs) in
              let actions = Scheduler.execute sched env ~subflows:views in
              Alcotest.(check int) "one push" 1 (List.length actions));
        ] );
    ]
