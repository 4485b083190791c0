(* Boosting short flows with application signaling (paper §5.3, Fig. 12).

   Short request/response flows (40 kB, ~28 segments: a typical short
   web response) over two subflows whose RTTs diverge. The application
   tells the Compensating scheduler when a flow ends (register R2); the
   scheduler then retransmits the packets still in flight on the other
   subflows, so the flow never waits for the slow path's last packet.
   The world is [bench fig12]'s.

   Run with: dune exec examples/short_flows.exe *)

let measure ~scheduler ~rtt_ratio ~signal_end =
  let r = Mptcp_exp.Figures.short_flows ~scheduler ~rtt_ratio ~signal_end in
  assert (r.completed = r.reps);
  (r.fct *. 1e3, r.overhead)

let () =
  Fmt.pr "short flows (40000 B) over subflows with diverging RTTs@.@.";
  Fmt.pr "%-10s %24s %28s@." "RTT ratio" "default FCT (overhead)"
    "compensating FCT (overhead)";
  List.iter
    (fun rtt_ratio ->
      let d_fct, d_wire = measure ~scheduler:"default" ~rtt_ratio ~signal_end:false in
      let c_fct, c_wire =
        measure ~scheduler:"compensating" ~rtt_ratio ~signal_end:true
      in
      Fmt.pr "%-10.1f %15.1f ms (%.2fx) %19.1f ms (%.2fx)@." rtt_ratio d_fct
        d_wire c_fct c_wire)
    [ 1.0; 2.0; 4.0; 6.0; 8.0 ];
  Fmt.pr
    "@.With the end-of-flow signal, the Compensating scheduler retains the \
     flow completion time as the RTT ratio grows, paying a bounded \
     retransmission overhead (wire bytes / flow bytes).@."
