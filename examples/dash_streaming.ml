(* Deadline-driven adaptive streaming (paper §5.4, the MP-DASH row of
   Table 2).

   A video session fetches one 400 kB chunk every 500 ms over WiFi +
   metered LTE. WiFi collapses twice, to 0.3 MB/s. The application's
   control loop keeps register R1 updated with the throughput required
   to meet the outstanding chunk deadlines; the deadline scheduler wakes
   the non-preferred LTE subflow only when that target is at risk. The
   world is the DASH half of [bench targets].

   Run with: dune exec examples/dash_streaming.exe *)

let run label ~scheduler =
  let o = Mptcp_exp.Figures.dash_deadlines ~scheduler in
  Fmt.pr "%-26s misses %2d/16   worst lateness %6.0f ms   LTE bytes %8d@."
    label o.Apps.Dash.deadline_misses
    (o.Apps.Dash.worst_lateness *. 1e3)
    o.Apps.Dash.backup_bytes

let () =
  Fmt.pr "DASH: 400 kB chunks every 500 ms; WiFi collapses twice@.@.";
  run "default (LTE backup)" ~scheduler:"default";
  run "deadline-aware" ~scheduler:"target_deadline";
  Fmt.pr
    "@.The deadline scheduler meets every deadline by waking LTE only \
     during the WiFi collapses; the default scheduler's backup semantics \
     never touch LTE and miss deadlines instead.@."
