(** The [simulate sweep] subcommand. Stdout (the deterministic group summary) is reproducible;
    wall-clock timing goes to stderr. Exit codes: 2 for campaign-file,
    scheduler, engine or fault-script errors; 3 when invariant checking
    was on and any run violated an invariant. *)

val cmd : unit Cmdliner.Cmd.t
(** The subcommand; its error messages start with [simulate sweep:]. *)
