(* Quickstart: write your own MPTCP scheduler in ProgMP, load it through
   the application API, and watch it schedule a transfer over two
   simulated paths.

   Run with: dune exec examples/quickstart.exe *)

open Mptcp_sim

(* A custom scheduler: prefer the subflow with the lowest RTT *variance*
   (a jitter-sensitive application), among those with a free congestion
   window — a one-line variation the paper's §3.4 suggests. *)
let my_scheduler =
  {|
VAR open = SUBFLOWS.FILTER(sbf =>
  sbf.CWND > sbf.SKBS_IN_FLIGHT + sbf.QUEUED);
IF (!Q.EMPTY) {
  VAR sbf = open.MIN(m => m.RTT_VAR);
  IF (sbf != NULL) { sbf.PUSH(Q.POP()); }
}
|}

let () =
  (* 1. Two paths: a fast 10 ms path and a slow 40 ms path. *)
  let paths =
    [
      Path_manager.symmetric ~name:"fast"
        { Link.default_params with Link.bandwidth = 2_500_000.0; delay = 0.005 };
      Path_manager.symmetric ~name:"slow"
        { Link.default_params with Link.bandwidth = 1_500_000.0; delay = 0.020 };
    ]
  in
  let conn = Connection.create ~seed:1 ~paths () in
  let sock = Connection.sock conn in

  (* 2. Load the scheduler (parse + type check) and select it for this
        connection — the Fig. 8 API, in OCaml. *)
  Progmp_runtime.Api.load_scheduler my_scheduler ~name:"min-jitter";
  Progmp_runtime.Api.set_scheduler sock "min-jitter";

  (* Optional: run it as verified, compiled bytecode instead of
     interpreted, by selecting the "threaded" engine from the registry. *)
  Progmp_compiler.Compile.register_engines ();
  (match Progmp_runtime.Scheduler.find "min-jitter" with
  | Some sched ->
      Progmp_runtime.Scheduler.set_engine sched "threaded";
      Fmt.pr "scheduler now runs on the %s engine@."
        (Progmp_runtime.Scheduler.engine_label sched)
  | None -> assert false);

  (* 3. Transfer 2 MB and report. *)
  Connection.write_at conn ~time:0.1 2_000_000;
  Connection.run ~until:30.0 conn;

  Fmt.pr "delivered %d bytes in %.3f s@."
    (Connection.delivered_bytes conn)
    (Connection.now conn);
  List.iter
    (fun (name, bytes) -> Fmt.pr "  %s carried %d bytes@." name bytes)
    (Connection.bytes_sent_per_subflow conn);

  (* 4. Applications can steer the scheduler at runtime via registers —
        here we just show the call; our toy scheduler ignores R1. *)
  Progmp_runtime.Api.set_register sock 0 4_000_000;
  Fmt.pr "register R1 now %d (a scheduling intent the spec could read)@."
    (Progmp_runtime.Api.get_register sock 0)
