(** The [simulate sweep] subcommand: parse a campaign file, execute it on a domain pool, print
    the deterministic group summary to stdout (wall-clock timing goes to
    stderr, keeping stdout reproducible), and optionally emit the full
    per-run data as CSV and/or JSON. *)

open Cmdliner

let spec_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"SPEC"
        ~doc:
          "Campaign file: one axis per line (scenario, scheduler, engine, \
           loss, fault, seed), plus duration and invariants; seeds accept \
           A..B ranges. See docs/EXPERIMENTS.md.")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains (default: the machine's recommended domain \
           count; higher requests are clamped to it unless \
           $(b,--jobs-force) is given). Results are identical for every \
           value of $(docv).")

let jobs_force_arg =
  Arg.(
    value
    & flag
    & info [ "jobs-force" ]
        ~doc:
          "Use $(b,--jobs) verbatim even above the recommended domain \
           count (oversubscription benchmarks).")

let csv_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"FILE" ~doc:"Write per-run results as CSV to $(docv).")

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Write the full report as JSON to $(docv).")

let cc_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cc" ] ~docv:"CC[,CC...]"
        ~doc:
          "Override the spec's congestion-control axis (comma-separated: \
           reno|lia|olia|coupled|ecoupled[:EPS]).")

let topology_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "topology" ] ~docv:"TOPO[,TOPO...]"
        ~doc:
          "Override the spec's topology axis (comma-separated: private, a \
           builtin topology name, or a topology file; fairness scenario \
           only).")

let split_axis s = String.split_on_char ',' s |> List.filter (( <> ) "")

let write_file file contents =
  Out_channel.with_open_text file (fun oc ->
      Out_channel.output_string oc contents)

(* prefixes every error message *)
let prog = "simulate sweep"

let run spec_file jobs force_jobs csv json cc topology =
  match Spec.load spec_file with
  | Error msg ->
      Fmt.epr "%s: %s@." prog msg;
      exit 2
  | Ok spec -> (
      (* axis overrides; values are validated like spec lines (located
         errors come from Sweep.prepare for topology files) *)
      let spec =
        match cc with
        | None -> spec
        | Some s -> (
            let ccs = split_axis s in
            match
              List.find_map
                (fun c ->
                  match Mptcp_sim.Congestion.of_string c with
                  | Ok _ -> None
                  | Error msg -> Some msg)
                ccs
            with
            | Some msg ->
                Fmt.epr "%s: --cc: %s@." prog msg;
                exit 2
            | None when ccs = [] ->
                Fmt.epr "%s: --cc: empty axis@." prog;
                exit 2
            | None -> { spec with Spec.ccs })
      in
      let spec =
        match topology with
        | None -> spec
        | Some s -> (
            match split_axis s with
            | [] ->
                Fmt.epr "%s: --topology: empty axis@." prog;
                exit 2
            | topologies -> { spec with Spec.topologies })
      in
      let t0 = Unix.gettimeofday () in
      match Sweep.execute ~force_jobs ?jobs spec with
      | Error msg ->
          Fmt.epr "%s: %s@." prog msg;
          exit 2
      | Ok report ->
          let wall = Unix.gettimeofday () -. t0 in
          Option.iter (fun f -> write_file f (Sweep.to_csv report)) csv;
          Option.iter (fun f -> write_file f (Sweep.to_json report)) json;
          Fmt.pr "%a" Sweep.pp_report report;
          Fmt.epr "wall time: %.2f s on %d job%s@." wall report.Sweep.jobs
            (if report.Sweep.jobs = 1 then "" else "s");
          let inv =
            List.fold_left
              (fun n r -> n + r.Sweep.r_inv_total)
              0 report.Sweep.runs
          in
          if inv > 0 then begin
            Fmt.epr "%s: %d invariant violation%s@." prog inv
              (if inv = 1 then "" else "s");
            exit 3
          end)

let cmd =
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Run an experiment campaign (a parameter grid of simulations) in \
          parallel on OCaml domains")
    Term.(
      const run $ spec_arg $ jobs_arg $ jobs_force_arg $ csv_arg
      $ json_arg $ cc_arg $ topology_arg)
