(** The extended scheduling API (paper §3.2, Fig. 7/8).

    This is the OCaml counterpart of the paper's Python library over
    sockopts: applications load schedulers, choose one per connection, set
    scheduler registers (scheduling intents such as a target bandwidth or
    an end-of-flow flag) and annotate outgoing data with per-packet
    properties. A {!socket} is the application-facing handle the MPTCP
    host (simulator) embeds in its meta socket. *)

type socket = {
  sock_name : string;
  env : Env.t;
  mutable scheduler : Scheduler.t;
  mutable default_props : int array;
      (** properties stamped on packets created from subsequent writes *)
}

exception Api_error of string

(** The paper's default scheduler (minimum RTT with unexhausted congestion
    window, reinjection first, backup semantics); the registry's
    "default" entry, loaded from this source when absent, runs on
    sockets that never call {!set_scheduler}, mirroring the kernel
    default. *)
let default_scheduler_source =
  {|
// reinjection queue has priority over new data
VAR candidates = SUBFLOWS.FILTER(c => !c.TSQ_THROTTLED AND !c.LOSSY);
// backup semantics (§3.4): backups carry traffic only when the
// connection has no active (non-backup) subflow at all
VAR actives = SUBFLOWS.FILTER(a => !a.IS_BACKUP);
VAR pool = candidates.FILTER(p => actives.EMPTY OR !p.IS_BACKUP);
VAR open = pool.FILTER(o => o.CWND > o.SKBS_IN_FLIGHT + o.QUEUED);
IF (!RQ.EMPTY) {
  VAR rsbf = open.MIN(r => r.RTT);
  IF (rsbf != NULL) { rsbf.PUSH(RQ.POP()); }
} ELSE {
  IF (!Q.EMPTY) {
    VAR sbf = open.MIN(m => m.RTT);
    IF (sbf != NULL) { sbf.PUSH(Q.POP()); }
  }
}
|}

(* The registry's current "default" entry, read at every socket
   creation so that a later reload or engine choice reaches new sockets;
   the stock specification is loaded under that name when nothing is
   registered yet. *)
let default_entry () =
  match Scheduler.find "default" with
  | Some s -> s
  | None -> Scheduler.load ~name:"default" default_scheduler_source

(* A socket's own instance of [s] on [s]'s engine: an instance carries
   scratch and runs one execution at a time, so two sockets never share
   one. A decision function installed with [Scheduler.install_custom]
   is not a registry engine and cannot be re-instantiated: it is shared
   as installed. *)
let own (s : Scheduler.t) =
  match Engine.find s.Scheduler.engine with
  | Some _ -> Scheduler.instantiate_private s ~engine:s.Scheduler.engine
  | None -> s

(** Return the socket to its freshly created state for a recycled
    connection: a reset environment and zero default properties. The
    selected scheduler stays: it is the host's choice, not per-flow
    state. *)
let reset sock =
  Env.reset sock.env;
  Array.fill sock.default_props 0 (Array.length sock.default_props) 0

let create ?(name = "socket") ?scheduler () =
  let sock =
    {
      sock_name = name;
      env = Env.create ();
      scheduler =
        (match scheduler with Some s -> s | None -> own (default_entry ()));
      default_props = Array.make Progmp_lang.Props.num_user_props 0;
    }
  in
  reset sock;
  sock

(** [load_scheduler spec name] compiles [spec] and registers it under
    [name] for later {!set_scheduler} calls by any connection.
    @raise Api_error when the specification does not compile. *)
let load_scheduler spec ~name =
  try ignore (Scheduler.load ~name spec)
  with Scheduler.Load_error msg -> raise (Api_error msg)

(** Select a previously loaded scheduler for this connection, on a
    private instance of its engine. Following the paper's advice,
    switching schedulers mid-connection is allowed but registers are the
    preferred way to change behaviour at runtime. *)
let set_scheduler sock name =
  match Scheduler.find name with
  | Some s -> sock.scheduler <- own s
  | None -> raise (Api_error (Fmt.str "scheduler %s is not loaded" name))

(** Set scheduler register [reg] (0-based, R1..R6) for this connection. *)
let set_register sock reg value =
  if reg < 0 || reg >= Progmp_lang.Props.num_registers then
    raise (Api_error (Fmt.str "no such register R%d" (reg + 1)));
  Env.set_register sock.env reg value

let get_register sock reg = Env.get_register sock.env reg

(** Set a default per-packet property: data written after this call is
    annotated with [value] in PROP[i+1] (cf. the HTTP/2-aware web server
    marking content types, §5.5). *)
let set_packet_property sock ~prop value =
  if prop < 0 || prop >= Progmp_lang.Props.num_user_props then
    raise (Api_error (Fmt.str "no such packet property PROP%d" (prop + 1)));
  sock.default_props.(prop) <- value

let current_packet_props sock = Array.copy sock.default_props

let scheduler_name sock = sock.scheduler.Scheduler.name
