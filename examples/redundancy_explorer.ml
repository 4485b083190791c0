(* Exploring the redundancy design space (paper §5.1, Fig. 10).

   Flow completion time of short flows over two lossy subflows, for the
   default scheduler and the three redundancy flavours: the existing
   fully-redundant scheduler, OpportunisticRedundant (redundancy only at
   first scheduling), and RedundantIfNoQ (fresh packets always first).
   The world is [bench fig10b]'s.

   Run with: dune exec examples/redundancy_explorer.exe *)

let schedulers =
  [ "default"; "redundant"; "opportunistic_redundant"; "redundant_if_no_q" ]

let measure ~scheduler ~size =
  let r = Mptcp_exp.Figures.redundancy_flows ~scheduler ~size in
  assert (r.completed = r.reps);
  (r.fct *. 1e3, r.overhead)

let () =
  Fmt.pr "short flows over 2 subflows with 2%% loss — mean FCT (wire/flow)@.@.";
  Fmt.pr "%-10s" "size (kB)";
  List.iter (fun s -> Fmt.pr " %26s" s) schedulers;
  Fmt.pr "@.";
  List.iter
    (fun size ->
      Fmt.pr "%-10d" (size / 1000);
      List.iter
        (fun scheduler ->
          let fct, overhead = measure ~scheduler ~size in
          Fmt.pr " %17.1f ms (%.2fx)" fct overhead)
        schedulers;
      Fmt.pr "@.")
    [ 10_000; 30_000; 100_000; 300_000 ];
  Fmt.pr
    "@.Redundant flavours beat the default scheduler on small lossy flows; \
     as flows grow, full redundancy gets expensive while RedundantIfNoQ \
     keeps favouring fresh data (paper Fig. 10b).@."
