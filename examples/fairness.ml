(* Shared-bottleneck fairness: coupled congestion control keeps MPTCP
   friendly to single-path TCP (RFC 6356 goal 2; the experiment the
   ROADMAP names as the prerequisite for the fairness campaigns).

   One MPTCP connection opens both routes of the [dumbbell] topology —
   two subflows squeezed through one shared bottleneck link — and
   competes with a single-path Reno cross-flow on the same link. Both
   are driven by saturating CBR sources, so each flow's share is
   decided by its congestion-control policy alone.

   The self-check runs the 2x2 matrix {LIA, uncoupled Reno} x
   {drop-tail, RED} and asserts the paper-expected separation:

   - coupled LIA's aggregate stays within 1.25x of the single-path
     flow's goodput (friendly: the pair of subflows behaves like one
     TCP flow at the shared bottleneck);
   - uncoupled Reno's aggregate exceeds 1.5x (two independent windows
     grab roughly two shares);

   under both queue disciplines. The process exits non-zero when any
   bound fails, so the cram harness doubles as a regression gate.

   Run with: dune exec examples/fairness.exe *)

open Mptcp_sim
module Scenarios = Mptcp_exp.Scenarios
module Spec = Mptcp_exp.Spec

let stock =
  Progmp_runtime.Scheduler.of_source ~name:"default"
    Progmp_runtime.Api.default_scheduler_source

let () =
  let failures = ref 0 and red_engaged = ref false in
  let friendly_bound = 1.25 and greedy_bound = 1.5 in
  (* one run of the registry's [fairness] scenario per (cc, topology);
     every connection runs its own instance of the stock scheduler *)
  let check (p : Spec.run_params) =
    let o =
      Scenarios.run
        {
          Scenarios.duration = 20.0;
          scheduler = stock;
          topology = Topology.of_name p.Spec.topology;
          ramp = [];
          instrument = ignore;
        }
        p
    in
    let extra k = List.assoc k o.Scenarios.result.Scenarios.r_extra in
    (* MPTCP aggregate goodput over single-path goodput *)
    let ratio = extra "mptcp_share" in
    let red_drops =
      List.fold_left
        (fun acc (st : Topology.link_stats) -> acc + st.Topology.ls_red_dropped)
        0 o.Scenarios.links
    in
    if p.Spec.topology = "dumbbell-red" && red_drops > 0 then
      red_engaged := true;
    let verdict =
      match p.Spec.cc with
      | "lia" when ratio <= friendly_bound -> "ok (friendly)"
      | "reno" when ratio > greedy_bound -> "ok (greedy)"
      | _ ->
          incr failures;
          "FAIL"
    in
    Fmt.pr "%-5s %-13s ratio %.2f jain %.3f red_drops %d  %s@." p.Spec.cc
      p.Spec.topology ratio (extra "jain") red_drops verdict
  in
  Fmt.pr "mptcp-aggregate / single-path goodput at a shared bottleneck@.";
  List.iter check
    (Spec.runs
       {
         Spec.default with
         scenarios = [ "fairness" ];
         ccs = [ "lia"; "reno" ];
         topologies = [ "dumbbell"; "dumbbell-red" ];
         seeds = [ 11 ];
       });
  (* RED must actually have engaged somewhere on the -red rows,
     otherwise the AQM matrix silently degenerated to drop-tail *)
  if not !red_engaged then begin
    incr failures;
    Fmt.pr "FAIL: RED never dropped on any dumbbell-red run@."
  end;
  if !failures > 0 then begin
    Fmt.pr "%d fairness bound(s) violated@." !failures;
    exit 1
  end;
  Fmt.pr "all fairness bounds hold@."
