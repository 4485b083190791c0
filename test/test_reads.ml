(** Subflow read sets: the snapshot fields a program can observe. The
    simulator fills only the fields in the running scheduler's
    [Scheduler.reads] and leaves the rest stale, which is sound only if
    no engine ever reads a field outside the set. Every engine runs each
    program twice — on fully filled views and on views whose unread
    fields hold sentinel garbage — and must not tell the two apart. *)

open Progmp_runtime
open Helpers
module Props = Progmp_lang.Props

let bit = Props.read_bit

let bits props = List.fold_left (fun acc p -> acc lor bit p) 0 props

(* Every field outside [reads] overwritten with a value no host would
   produce (booleans flipped); [id] is always read. *)
let garble reads (v : Subflow_view.t) =
  let open Props in
  let g = Subflow_view.copy v in
  let junk = -7_777_777 - (1_001 * v.Subflow_view.id) in
  let out p = reads land bit p = 0 in
  if out Rtt then g.rtt_us <- junk;
  if out Rtt_avg then g.rtt_avg_us <- junk - 1;
  if out Rtt_var then g.rtt_var_us <- junk - 2;
  if out Cwnd then g.cwnd <- junk - 3;
  if out Ssthresh then g.ssthresh <- junk - 4;
  if out Skbs_in_flight then g.skbs_in_flight <- junk - 5;
  if out Queued then g.queued <- junk - 6;
  if out Lost_skbs then g.lost_skbs <- junk - 7;
  if out Is_backup then g.is_backup <- not v.is_backup;
  if out Tsq_throttled then g.tsq_throttled <- not v.tsq_throttled;
  if out Lossy then g.lossy <- not v.lossy;
  if out Rto then g.rto_us <- junk - 8;
  if out Throughput then g.throughput_bps <- junk - 9;
  if out Mss then g.mss <- junk - 10;
  if reads land Props.receive_window_bit = 0 then
    g.receive_window_bytes <- junk - 11;
  g

type observation = {
  actions : norm_action list;
  queues : int list * int list * int list;
  regs : int list;
}

let observe run spec ~views:map =
  let env, views = build spec in
  Env.begin_execution env ~subflows:(Array.map map views);
  run env;
  let actions = List.map norm_action (Env.finish_execution env) in
  {
    actions;
    queues = (seqs_of env.Env.q, seqs_of env.Env.qu, seqs_of env.Env.rq);
    regs = Array.to_list env.Env.registers;
  }

let pp_obs ppf o =
  let q, qu, rq = o.queues in
  let ints = Fmt.(list ~sep:(any ",") int) in
  Fmt.pf ppf "actions=[%a] q=[%a] qu=[%a] rq=[%a] regs=[%a]"
    Fmt.(list ~sep:(any ";") pp_norm)
    o.actions ints q ints qu ints rq ints o.regs

let obs_testable = Alcotest.testable pp_obs ( = )

let () = Progmp_compiler.Compile.register_engines ()

(* one (full, garbled) pair per engine *)
let agree_under_garbage ~reads program spec =
  List.map
    (fun engine ->
      let full = observe (Engine.instantiate engine program) spec ~views:Fun.id in
      let garbled =
        observe (Engine.instantiate engine program) spec ~views:(garble reads)
      in
      (engine, full, garbled))
    (Engine.names ())

let zoo_cases =
  List.map
    (fun (name, src) ->
      tc (Fmt.str "%s: unread fields are never read" name) (fun () ->
          let sched = Scheduler.of_source ~name src in
          List.iter
            (fun (spec_name, spec) ->
              List.iter
                (fun (engine, full, garbled) ->
                  Alcotest.check obs_testable
                    (Fmt.str "%s on %s" spec_name engine)
                    full garbled)
                (agree_under_garbage ~reads:sched.Scheduler.reads
                   sched.Scheduler.program spec))
            Test_differential.specs))
    Schedulers.Specs.all

let random_unread =
  let gen =
    QCheck2.Gen.pair Gen.gen_program (QCheck2.Gen.small_list Gen.gen_env_spec)
  in
  QCheck2.Test.make ~name:"random programs never read outside their set"
    ~count:300 gen (fun (ast, env_specs) ->
      let program = Progmp_lang.Optimize.program (Progmp_lang.Typecheck.check ast) in
      let reads = Progmp_lang.Tast.subflow_reads program in
      List.for_all
        (fun spec ->
          List.for_all
            (fun (_, full, garbled) -> full = garbled)
            (agree_under_garbage ~reads program spec))
        (default_env_spec :: env_specs))

let reads_of src = (Scheduler.of_source ~name:"reads" src).Scheduler.reads

let set_cases =
  let open Props in
  [
    tc "default reads its seven properties and ID" (fun () ->
        Alcotest.(check int) "default"
          (bits
             [ Tsq_throttled; Lossy; Is_backup; Cwnd; Skbs_in_flight; Queued;
               Rtt; Sbf_id ])
          (reads_of Schedulers.Specs.default));
    tc "redundant reads its three properties and ID" (fun () ->
        Alcotest.(check int) "redundant"
          (bits [ Cwnd; Skbs_in_flight; Queued; Sbf_id ])
          (reads_of Schedulers.Specs.redundant));
    tc "HAS_WINDOW_FOR reads the window, in-flight count and MSS" (fun () ->
        Alcotest.(check int) "window"
          (Props.receive_window_bit lor bits [ Skbs_in_flight; Mss; Sbf_id ])
          (reads_of
             {|
VAR sbf = SUBFLOWS.GET(0);
IF (sbf != NULL AND !Q.EMPTY AND sbf.HAS_WINDOW_FOR(Q.TOP)) {
  sbf.PUSH(Q.POP());
}
|}));
    tc "a program naming no property still reads ID" (fun () ->
        Alcotest.(check int) "id only" (bit Sbf_id)
          (reads_of "IF (!Q.EMPTY) { DROP(Q.POP()); }"));
    tc "install_custom reads every field; set_engine restores the set"
      (fun () ->
        let sched =
          Scheduler.of_source ~name:"custom" Schedulers.Specs.redundant
        in
        let own = sched.Scheduler.reads in
        Scheduler.install_custom sched ~name:"ocaml" sched.Scheduler.run;
        Alcotest.(check int) "every field" Props.all_reads
          sched.Scheduler.reads;
        Scheduler.set_engine sched "interpreter";
        Alcotest.(check int) "program's set again" own sched.Scheduler.reads);
    tc "a private instance keeps the read set" (fun () ->
        let sched = Scheduler.of_source ~name:"inst" Schedulers.Specs.default in
        Alcotest.(check int) "copied" sched.Scheduler.reads
          (Scheduler.instantiate_private sched ~engine:"threaded")
            .Scheduler.reads);
  ]

let all_props =
  Props.
    [ Rtt; Rtt_avg; Rtt_var; Cwnd; Ssthresh; Skbs_in_flight; Queued;
      Lost_skbs; Is_backup; Tsq_throttled; Lossy; Sbf_id; Rto; Throughput;
      Mss ]

(* The simulator's snapshot against the cold-path full view: every field
   of the socket's current read set is fresh, also right after the
   application swapped schedulers in mid-flow. *)
let swap_case =
  tc "a mid-flow scheduler swap fills the new scheduler's fields" (fun () ->
      let open Mptcp_sim in
      ignore (Schedulers.Specs.load_all ());
      let conn =
        Connection.create ~seed:3
          ~paths:
            (Mptcp_exp.Scenarios.mininet_two_subflows ~rtt_ratio:2.0
               ~loss:0.02 ())
          ()
      in
      let sock = Connection.sock conn in
      Api.set_scheduler sock "redundant";
      ignore (Connection.write conn 2_000_000);
      List.iteri
        (fun step name ->
          Connection.run ~until:(0.5 *. float_of_int (step + 1)) conn;
          Api.set_scheduler sock name;
          let reads = sock.Api.scheduler.Scheduler.reads in
          let views = Meta_socket.snapshot conn.Connection.meta in
          Alcotest.(check int) "both subflows up" 2 (Array.length views);
          Array.iteri
            (fun i v ->
              let full = Tcp_subflow.view (Connection.subflow conn i) in
              List.iter
                (fun p ->
                  if reads land bit p <> 0 then
                    Alcotest.(check int)
                      (Fmt.str "%s: sbf %d %s" name i
                         (Props.subflow_prop_name p))
                      (Subflow_view.prop_int full p)
                      (Subflow_view.prop_int v p))
                all_props;
              if reads land Props.receive_window_bit <> 0 then
                Alcotest.(check int)
                  (Fmt.str "%s: sbf %d window" name i)
                  full.Subflow_view.receive_window_bytes
                  v.Subflow_view.receive_window_bytes)
            views)
        [ "redundant"; "target_deadline"; "default" ])

let suite =
  [
    ("read sets", set_cases @ [ swap_case ]);
    ("read sets: zoo x engines", zoo_cases);
    ("read sets: random programs", [ QCheck_alcotest.to_alcotest random_unread ]);
  ]
