(** The [simulate fleet] subcommand: host an open-loop fleet of concurrent MPTCP connections in
    one process and print the aggregate summary. Uses the same topology
    and RNG streams as the [fleet] sweep scenario, so a CLI run
    reproduces a sweep run bit for bit. *)

val cmd : unit Cmdliner.Cmd.t

(** Flags shared by the [simulate], [fleet] and [progmp] commands:
    [--scheduler]/[-s], [--engine]/[--backend], [--seed], [--loss], [--cc]. *)

val scheduler_arg : string Cmdliner.Term.t
val engine_arg : string Cmdliner.Term.t
val seed_arg : int Cmdliner.Term.t
val loss_arg : float Cmdliner.Term.t
val cc_arg : string Cmdliner.Term.t
