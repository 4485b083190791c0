(** Declarative link-graph topologies: named links (with per-link queue
    disciplines) that several subflows, several connections and
    background single-path cross-traffic traverse {e simultaneously} —
    the shared-bottleneck scenario space the paper inherits from
    Linux/Mininet and LIA (RFC 6356) exists to answer.

    A topology names its links and declares routes: each route is one
    MPTCP path crossing one named link in the data direction. Everything
    routed over the same named link competes honestly for its
    serialization horizon and backlog ring ({!Link}); RTT heterogeneity
    between routes sharing a bottleneck is expressed through the
    ack-return delay of each route (the reverse path is private and
    unconstrained, like {!Path_manager.symmetric}). Multi-hop chains are
    out of scope: the competitive dynamics under study happen at the one
    bottleneck, which is where ns-3 evaluations put them too. *)

type link_spec = { l_name : string; l_params : Link.params }

type route = {
  r_path : string;  (** MPTCP path name, e.g. "wifi" *)
  r_link : string;  (** named link the data direction crosses *)
  r_ack_delay : float option;
      (** ack-return one-way delay; defaults to the link's delay *)
  r_backup : bool;
}

type t = { t_name : string; t_links : link_spec list; t_routes : route list }

let name t = t.t_name

(* ---------- validation ---------- *)

let validate t =
  let rec dup = function
    | [] -> None
    | l :: rest ->
        if List.exists (fun l' -> l'.l_name = l.l_name) rest then
          Some l.l_name
        else dup rest
  in
  if t.t_links = [] then Error "topology has no links"
  else if t.t_routes = [] then Error "topology has no paths"
  else
    match dup t.t_links with
    | Some n -> Error (Fmt.str "duplicate link %S" n)
    | None -> (
        let unknown =
          List.find_opt
            (fun r ->
              not (List.exists (fun l -> l.l_name = r.r_link) t.t_links))
            t.t_routes
        in
        match unknown with
        | Some r ->
            Error
              (Fmt.str "path %S routes via unknown link %S" r.r_path r.r_link)
        | None -> (
            let rec dup_path = function
              | [] -> None
              | r :: rest ->
                  if List.exists (fun r' -> r'.r_path = r.r_path) rest then
                    Some r.r_path
                  else dup_path rest
            in
            match dup_path t.t_routes with
            | Some n -> Error (Fmt.str "duplicate path %S" n)
            | None -> Ok ()))

(* ---------- builtins ---------- *)

(* The shared-bottleneck tuning: a 10 Mbit/s bottleneck with a 20 ms
   one-way delay and 128 kB of buffer, kept busy by CBR sources — small
   enough to simulate seconds of competition quickly, large enough for
   the coupled/uncoupled throughput gap to be unambiguous. The random
   loss keeps every flow firmly congestion-window-limited (the meta
   scheduler is ack-clocked, so an all-TCP workload never oversubscribes
   a lossless link on its own): with cwnd as the binding constraint the
   congestion-control policy, not the ack clock, decides each flow's
   share. Queue occupancy comes from the bursts that follow cwnd
   reopenings after loss pauses, which is the band the RED variant's
   thresholds target. *)
let bottleneck_params qdisc =
  {
    Link.default_params with
    bandwidth = 1_250_000.0;
    delay = 0.02;
    buffer_bytes = 128 * 1024;
    loss = 0.015;
    qdisc;
  }

let dumbbell_with name qdisc =
  {
    t_name = name;
    t_links = [ { l_name = "bottleneck"; l_params = bottleneck_params qdisc } ];
    t_routes =
      [
        { r_path = "wifi"; r_link = "bottleneck"; r_ack_delay = None;
          r_backup = false };
        { r_path = "lte"; r_link = "bottleneck"; r_ack_delay = Some 0.04;
          r_backup = false };
      ];
  }

(** Two MPTCP routes (wifi, lte — the lte ack path slower) squeezed
    through one shared drop-tail bottleneck. *)
let dumbbell = dumbbell_with "dumbbell" Link.Drop_tail

(** {!dumbbell} with a RED AQM at the bottleneck. The thresholds sit in
    the transient-burst band (a handful of segments): with ack-clocked
    TCP sources the queue only spikes when a pause-recovered flow
    flushes its backlog, so marking must begin well below the buffer
    size to ever engage. *)
let dumbbell_red =
  dumbbell_with "dumbbell-red"
    (Link.Red
       { red_min = 4 * 1024; red_max = 32 * 1024; red_pmax = 0.2;
         red_weight = 0.05 })

(** The same two routes over {e private} bottlenecks — the pre-topology
    point-to-point world expressed as a graph, for apples-to-apples cc
    comparisons. *)
let two_bottlenecks =
  {
    t_name = "two-bottlenecks";
    t_links =
      [
        { l_name = "left"; l_params = bottleneck_params Link.Drop_tail };
        { l_name = "right"; l_params = bottleneck_params Link.Drop_tail };
      ];
    t_routes =
      [
        { r_path = "wifi"; r_link = "left"; r_ack_delay = None;
          r_backup = false };
        { r_path = "lte"; r_link = "right"; r_ack_delay = Some 0.04;
          r_backup = false };
      ];
  }

let builtins = [ dumbbell; dumbbell_red; two_bottlenecks ]

let names = List.map (fun t -> t.t_name) builtins

let of_name n = List.find_opt (fun t -> t.t_name = n) builtins

(* ---------- text format ---------- *)

(* One declaration per line; '#' starts a comment:

     link NAME bw BYTES_PER_S delay S [loss P] [jitter S] [buffer BYTES]
               [red MIN_BYTES MAX_BYTES PMAX]
     path NAME via LINK [ack_delay S] [backup]

   Errors are located by line number so a CLI can print them and exit 2. *)

let parse ?(name = "topology") text =
  let ( let* ) = Result.bind in
  let err n fmt = Fmt.kstr (fun m -> Error (Fmt.str "%s:%d: %s" name n m)) fmt in
  let float_arg n what v =
    match float_of_string_opt v with
    | Some f when Float.is_finite f -> Ok f
    | _ -> err n "%s: expected a finite number, got %S" what v
  in
  let int_arg n what v =
    match int_of_string_opt v with
    | Some i -> Ok i
    | None -> err n "%s: expected an integer, got %S" what v
  in
  let parse_link n lname toks =
    let rec opts p = function
      | [] -> Ok p
      | "bw" :: v :: rest ->
          let* bw = float_arg n "bw" v in
          if bw <= 0.0 then err n "bw must be positive"
          else opts { p with Link.bandwidth = bw } rest
      | "delay" :: v :: rest ->
          let* d = float_arg n "delay" v in
          if d < 0.0 then err n "delay must be >= 0"
          else opts { p with Link.delay = d } rest
      | "loss" :: v :: rest ->
          let* l = float_arg n "loss" v in
          if l < 0.0 || l > 1.0 then err n "loss must be in [0, 1]"
          else opts { p with Link.loss = l } rest
      | "jitter" :: v :: rest ->
          let* j = float_arg n "jitter" v in
          if j < 0.0 then err n "jitter must be >= 0"
          else opts { p with Link.jitter = j } rest
      | "buffer" :: v :: rest ->
          let* b = int_arg n "buffer" v in
          if b <= 0 then err n "buffer must be positive"
          else opts { p with Link.buffer_bytes = b } rest
      | "red" :: mn :: mx :: pm :: rest ->
          let* mn = int_arg n "red min" mn in
          let* mx = int_arg n "red max" mx in
          let* pm = float_arg n "red pmax" pm in
          if mn < 0 || mx <= mn then err n "red thresholds need 0 <= min < max"
          else if pm <= 0.0 || pm > 1.0 then err n "red pmax must be in (0, 1]"
          else
            opts
              {
                p with
                Link.qdisc =
                  Link.Red
                    { red_min = mn; red_max = mx; red_pmax = pm;
                      red_weight = Link.default_red.Link.red_weight };
              }
              rest
      | tok :: _ -> err n "unknown or incomplete link option %S" tok
    in
    let* p = opts Link.default_params toks in
    Ok { l_name = lname; l_params = p }
  in
  let parse_path n pname toks =
    match toks with
    | "via" :: link :: rest ->
        let rec opts r = function
          | [] -> Ok r
          | "ack_delay" :: v :: rest ->
              let* d = float_arg n "ack_delay" v in
              if d < 0.0 then err n "ack_delay must be >= 0"
              else opts { r with r_ack_delay = Some d } rest
          | "backup" :: rest -> opts { r with r_backup = true } rest
          | tok :: _ -> err n "unknown or incomplete path option %S" tok
        in
        opts
          { r_path = pname; r_link = link; r_ack_delay = None;
            r_backup = false }
          rest
    | _ -> err n "path %S: expected 'via LINK'" pname
  in
  let lines = String.split_on_char '\n' text in
  let rec go n links routes = function
    | [] ->
        let t =
          {
            t_name = name;
            t_links = List.rev links;
            t_routes = List.rev routes;
          }
        in
        Result.map_error (Fmt.str "%s: %s" name) (validate t)
        |> Result.map (fun () -> t)
    | line :: rest -> (
        let line =
          match String.index_opt line '#' with
          | Some i -> String.sub line 0 i
          | None -> line
        in
        let toks =
          String.split_on_char ' ' line
          |> List.concat_map (String.split_on_char '\t')
          |> List.filter (fun s -> s <> "")
        in
        match toks with
        | [] -> go (n + 1) links routes rest
        | "link" :: lname :: opts ->
            let* l = parse_link n lname opts in
            go (n + 1) (l :: links) routes rest
        | "path" :: pname :: opts ->
            let* r = parse_path n pname opts in
            go (n + 1) links (r :: routes) rest
        | tok :: _ -> err n "expected 'link' or 'path', got %S" tok)
  in
  go 1 [] [] lines

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> parse ~name:path text
  | exception Sys_error msg -> Error msg

(** Resolve a [--topology] argument: a builtin name, or a file in the
    text format. The error message lists the builtins. *)
let resolve arg =
  match of_name arg with
  | Some t -> Ok t
  | None ->
      if Sys.file_exists arg then load arg
      else
        Error
          (Fmt.str "unknown topology %S (builtins: %s, or a topology file)"
             arg (String.concat "|" names))

(* ---------- instantiation ---------- *)

type built = {
  b_spec : t;
  b_clock : Eventq.t;
  b_rng : Rng.t;  (** source of per-ack-link rngs, split at attach time *)
  b_links : (string * Link.t) list;  (** one shared [Link.t] per name *)
}

(** Instantiate the named links on [clock]. Per-link rngs come from
    {!Rng.stream} on [seed] in declaration order, so two builds of the
    same topology with the same seed are identical — the determinism
    contract the parallel sweep relies on.
    @raise Invalid_argument when the topology fails {!validate}. *)
let build ?(seed = 7) ~clock t =
  (match validate t with
  | Ok () -> ()
  | Error m -> Fmt.invalid_arg "Topology.build: %s" m);
  let links =
    List.mapi
      (fun i l ->
        ( l.l_name,
          Link.create ~params:l.l_params ~clock ~rng:(Rng.stream ~seed i) () ))
      t.t_links
  in
  { b_spec = t; b_clock = clock; b_rng = Rng.stream ~seed 1_000_003;
    b_links = links }

let spec b = b.b_spec

let link_exn b name =
  match List.assoc_opt name b.b_links with
  | Some l -> l
  | None -> Fmt.invalid_arg "Topology.link_exn: no link %S" name

let links b = b.b_links

(* Private, unconstrained reverse path for acks — same shape as
   [Path_manager.symmetric], with the route's ack delay. *)
let ack_link b ~delay =
  Link.create
    ~params:
      { Link.default_params with bandwidth = 1e9; delay; loss = 0.0;
        jitter = 0.0 }
    ~clock:b.b_clock ~rng:(Rng.split b.b_rng) ()

let route_delay b r =
  match r.r_ack_delay with
  | Some d -> d
  | None -> (Link.delay (link_exn b r.r_link) : float)

(** Materialize every route as a path spec over its links for
    {!Connection.create}: the data link is the {e shared} named link,
    the ack link fresh and private. Call once per MPTCP connection; all
    attachments compete on the shared links. *)
let attach ?(establish_at = 0.0) b =
  List.map
    (fun r ->
      let data = link_exn b r.r_link in
      let ack = ack_link b ~delay:(route_delay b r) in
      {
        Path_manager.path_name = r.r_path;
        up = data.Link.params;
        down = ack.Link.params;
        backup = r.r_backup;
        establish_at;
        links = Some (data, ack);
      })
    b.b_spec.t_routes

(** An MPTCP connection over all routes of the topology. *)
let connect ?(seed = 42) ?(cc = Congestion.Lia) ?rcv_buffer ?delivery_mode
    ?scheduler b =
  Connection.create ?rcv_buffer ?delivery_mode ?scheduler ~seed ~cc
    ~clock:b.b_clock ~paths:(attach b) ()

(** A background single-path TCP flow (uncoupled Reno, one subflow)
    crossing the named link — the cross-traffic the fairness experiments
    compete against.
    @raise Invalid_argument on an unknown link name. *)
let single ?(seed = 43) ?(name = "tcp") ?(ack_delay : float option) b ~via () =
  let data = link_exn b via in
  let delay = match ack_delay with Some d -> d | None -> Link.delay data in
  let ack = ack_link b ~delay in
  let spec =
    {
      Path_manager.path_name = name;
      up = data.Link.params;
      down = ack.Link.params;
      backup = false;
      establish_at = 0.0;
      links = Some (data, ack);
    }
  in
  Connection.create ~seed ~cc:Congestion.Reno ~clock:b.b_clock
    ~paths:[ spec ] ()

(* ---------- per-link reporting ---------- *)

type link_stats = {
  ls_name : string;
  ls_delivered : int;
  ls_lost : int;  (** random losses *)
  ls_tail_dropped : int;
  ls_red_dropped : int;
  ls_mean_backlog : float;  (** time-averaged occupancy, bytes *)
  ls_peak_backlog : int;
}

let stats b =
  List.map
    (fun (name, l) ->
      {
        ls_name = name;
        ls_delivered = l.Link.delivered;
        ls_lost = l.Link.lost;
        ls_tail_dropped = l.Link.tail_dropped;
        ls_red_dropped = l.Link.red_dropped;
        ls_mean_backlog = Link.mean_backlog l;
        ls_peak_backlog = Link.peak_backlog l;
      })
    b.b_links

let pp_stats ppf stats =
  List.iter
    (fun s ->
      Fmt.pf ppf "link %s: delivered %d lost %d tail_drop %d red_drop %d \
                  occ_mean %.0f occ_peak %d@."
        s.ls_name s.ls_delivered s.ls_lost s.ls_tail_dropped s.ls_red_dropped
        s.ls_mean_backlog s.ls_peak_backlog)
    stats
