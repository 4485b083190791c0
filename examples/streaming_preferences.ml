(* Interactive streaming with path preferences (paper Figs. 1 and 13).

   A 1 MB/s stream switches to 4 MB/s after 6 seconds, over WiFi
   (preferred, 10 ms RTT, rate fluctuating between 2.5 and 5 MB/s, so
   its average cannot sustain the 4 MB/s phase alone) and metered LTE
   (40 ms RTT). Three configurations:

   - the default MinRTT scheduler with LTE as a normal subflow: LTE
     carries a large share even at 1 MB/s (Fig. 1's complaint);
   - the default scheduler with LTE in backup mode: LTE is silent, so
     the 4 MB/s phase starves when WiFi dips;
   - the TAP scheduler with the target rate signalled in R1: LTE carries
     only the deficit.

   A stalled second is one whose delivery rate fell below 90% of the
   target. The world is [bench fig13]'s.

   Run with: dune exec examples/streaming_preferences.exe *)

let run label ~scheduler ~lte_backup =
  let r = Mptcp_exp.Figures.stream ~scheduler ~lte_backup in
  Fmt.pr "%-28s lte share %4.1f%%  stalled seconds %2d  delivered %5.1f MB@."
    label r.lte_share r.stalled_s
    (float_of_int r.delivered /. 1e6)

let () =
  Fmt.pr "interactive stream: 1 MB/s for 6 s, then 4 MB/s (WiFi+LTE)@.@.";
  run "default (LTE regular)" ~scheduler:"default" ~lte_backup:false;
  run "default (LTE backup)" ~scheduler:"default" ~lte_backup:true;
  run "TAP (preference-aware)" ~scheduler:"tap" ~lte_backup:true;
  Fmt.pr
    "@.TAP sustains the stream like the default scheduler but keeps the \
     metered LTE usage close to the minimum the target rate requires.@."
