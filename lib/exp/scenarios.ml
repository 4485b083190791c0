(** The scenario registry: one definition of each evaluation scenario
    (§5: bulk, streaming, short flows, HTTP/2, DASH, plus the open-loop
    fleet and the shared-bottleneck fairness probe). Drivers differ only
    in the [instrument] hook of {!ctx}. The canonical
    path sets below — the OCaml analogues of the paper's two testbeds —
    are shared with {!Figures}, the examples and the tests. *)

open Mptcp_sim
module R = Progmp_runtime

(** "In the wild" WiFi + LTE setup (Figs. 1, 13, 14): WiFi with a 10 ms
    RTT and ~5 MB/s that fluctuates, LTE with a 40 ms RTT and 4 MB/s.
    [lte_backup] flags LTE as the non-preferred subflow.
    [wifi_extra_delay] adds one-way delay to WiFi (the RTT-ratio sweep of
    Fig. 14). *)
let wifi_lte ?(wifi_bw = 5_000_000.0) ?(lte_bw = 4_000_000.0)
    ?(wifi_loss = 0.0) ?(lte_loss = 0.0) ?(wifi_extra_delay = 0.0)
    ?(lte_backup = true) () =
  [
    Path_manager.symmetric ~name:"wifi"
      {
        Link.default_params with
        Link.bandwidth = wifi_bw;
        delay = 0.005 +. wifi_extra_delay;
        loss = wifi_loss;
        buffer_bytes = 512 * 1024;
      };
    Path_manager.symmetric ~name:"lte" ~backup:lte_backup
      {
        Link.default_params with
        Link.bandwidth = lte_bw;
        delay = 0.020;
        loss = lte_loss;
        buffer_bytes = 768 * 1024;
      };
  ]

(** Install WiFi bandwidth fluctuation: every [interval], the WiFi rate
    is redrawn uniformly from [low, high] (the dips visible in Fig. 13's
    WiFi trace). Call after {!Connection.create}. *)
let fluctuate_wifi (conn : Connection.t) ~rng ~until ?(interval = 0.5)
    ~low ~high () =
  match Connection.find_path conn "wifi" with
  | None -> ()
  | Some m ->
      let link = m.Path_manager.data_link in
      let rec tick time =
        if time < until then
          Connection.at conn ~time (fun () ->
              let bw = low +. (Rng.float rng *. (high -. low)) in
              Link.set_bandwidth link bw;
              tick (time +. interval))
      in
      tick interval

(** Mininet-style symmetric two-subflow setup (Figs. 10, 12): equal
    bandwidth, base RTT of [base_rtt] on subflow 1 and
    [base_rtt *. rtt_ratio] on subflow 2, [loss] on both. *)
let mininet_two_subflows ?(bandwidth = 1_250_000.0) ?(base_rtt = 0.020)
    ?(rtt_ratio = 1.0) ?(loss = 0.0) () =
  let mk name rtt =
    Path_manager.symmetric ~name
      {
        Link.default_params with
        Link.bandwidth = bandwidth;
        delay = rtt /. 2.0;
        loss;
        buffer_bytes = 256 * 1024;
      }
  in
  [ mk "sbf1" base_rtt; mk "sbf2" (base_rtt *. rtt_ratio) ]

(** Data-center-ish short-RTT paths (loss-compensation experiments). *)
let datacenter ?(bandwidth = 125_000_000.0) ?(rtt = 0.0002) ?(loss = 0.0)
    ?(n = 2) () =
  List.init n (fun i ->
      Path_manager.symmetric
        ~name:(Fmt.str "dc%d" i)
        {
          Link.default_params with
          Link.bandwidth;
          delay = rtt /. 2.0;
          loss;
          buffer_bytes = 1 lsl 20;
        })

type run_result = {
  r_params : Spec.run_params;
  r_sim_time : float;
  r_delivered : int;
  r_goodput_bps : float;
  r_completion : float option;
  r_executions : int;
  r_pushes : int;
  r_subflow_bytes : (string * int) list;
  r_inv_total : int;
  r_inv_messages : string list;
  r_extra : (string * float) list;
}

type ctx = {
  duration : float;
  scheduler : R.Scheduler.t;
  topology : Topology.t option;
  ramp : Traffic.ramp;
  instrument : Connection.t -> unit;
}

type outcome = {
  result : run_result;
  conns : Connection.t list;
  links : Topology.link_stats list;
}

let blank p =
  {
    r_params = p;
    r_sim_time = 0.0;
    r_delivered = 0;
    r_goodput_bps = 0.0;
    r_completion = None;
    r_executions = 0;
    r_pushes = 0;
    r_subflow_bytes = [];
    r_inv_total = 0;
    r_inv_messages = [];
    r_extra = [];
  }

(* validated by every driver before a run starts *)
let cc_of (p : Spec.run_params) =
  match Congestion.of_string p.Spec.cc with
  | Ok c -> c
  | Error msg -> invalid_arg msg

(* the run's scheduler, on a socket-private instance of the run's engine *)
let instance ctx (p : Spec.run_params) =
  R.Scheduler.instantiate_private ctx.scheduler ~engine:p.Spec.engine

let connect ctx ?clock ~seed (p : Spec.run_params) paths =
  Connection.create ?clock ~seed ~cc:(cc_of p) ~scheduler:(instance ctx p)
    ~paths ()

let attach ctx conn = ctx.instrument conn

let lossy_wifi_lte (p : Spec.run_params) =
  wifi_lte ~wifi_loss:p.Spec.loss ~lte_loss:p.Spec.loss ()

let mininet ~rtt_ratio (p : Spec.run_params) =
  mininet_two_subflows ~rtt_ratio ~loss:p.Spec.loss ()

(* Aggregate result over hosted connections: byte and counter sums,
   completion = latest connection completion ([None] as soon as one
   writing connection is incomplete), per-path wire bytes merged by path
   name in first-occurrence order. For a single connection every field
   reduces exactly to the per-connection result. *)
let totals p conns ~sim_time ~extra =
  let delivered =
    List.fold_left (fun n c -> n + Connection.delivered_bytes c) 0 conns
  in
  let fcts =
    List.filter_map
      (fun conn ->
        let m = conn.Connection.meta in
        if m.Meta_socket.next_seq = 0 then None
        else Some (Meta_socket.fct m ~first:0 ~last:(m.Meta_socket.next_seq - 1)))
      conns
  in
  let completion =
    if fcts = [] || List.mem None fcts then None
    else Some (List.fold_left (fun a t -> Float.max a (Option.get t)) 0.0 fcts)
  in
  let executions, pushes =
    List.fold_left
      (fun (e, q) c ->
        let m = c.Connection.meta in
        (e + m.Meta_socket.sched_executions, q + m.Meta_socket.pushes))
      (0, 0) conns
  in
  let per_path = List.concat_map Connection.bytes_sent_per_subflow conns in
  let subflow_bytes =
    List.fold_left
      (fun acc (name, bytes) ->
        if not (List.mem_assoc name acc) then acc @ [ (name, bytes) ]
        else List.map (fun (n, b) -> (n, if n = name then b + bytes else b)) acc)
      [] per_path
  in
  let span =
    match completion with
    | Some t when t > 0.0 -> t
    | Some _ | None -> sim_time
  in
  {
    (blank p) with
    r_sim_time = sim_time;
    r_delivered = delivered;
    r_goodput_bps =
      (if span > 0.0 then 8.0 *. float_of_int delivered /. span else 0.0);
    r_completion = completion;
    r_executions = executions;
    r_pushes = pushes;
    r_subflow_bytes = subflow_bytes;
    r_extra = extra;
  }

(* Host the run's [p.fleet] copies of the world [mk] on one shared clock
   and run it to [until]. Connection 0 is built with the run's own seed,
   so a fleet-1 run is exactly the single-connection scenario; the
   extra copies draw independent stream seeds keyed by their index. *)
let hosted ?until ?(extra = fun () -> []) ctx (p : Spec.run_params) mk =
  let clock = Eventq.create () in
  (* [List.init] builds in index order, so connection 0 comes first *)
  let conns =
    List.init p.Spec.fleet (fun i ->
        let seed =
          if i = 0 then p.Spec.seed else Rng.stream_seed ~seed:p.Spec.seed i
        in
        mk ~clock ~seed)
  in
  ignore (Eventq.run ~until:(Option.value until ~default:ctx.duration) clock);
  {
    result = totals p conns ~sim_time:(Eventq.now clock) ~extra:(extra ());
    conns;
    links = [];
  }

let bulk ctx p =
  hosted ctx p (fun ~clock ~seed ->
      let conn = connect ctx ~clock ~seed p (mininet ~rtt_ratio:2.0 p) in
      attach ctx conn;
      Apps.Workload.bulk conn ~at:0.1 ~bytes:4_000_000;
      conn)

let stream ctx p =
  let duration = ctx.duration in
  hosted ctx p (fun ~clock ~seed ->
      let conn = connect ctx ~clock ~seed p (lossy_wifi_lte p) in
      attach ctx conn;
      let rate t = if t < duration /. 3.0 then 1_000_000.0 else 4_000_000.0 in
      Apps.Workload.cbr ~signal_register:0 conn ~start:0.2
        ~stop:(duration -. 2.0) ~interval:0.1 ~rate;
      fluctuate_wifi conn
        ~rng:(Rng.create (seed + 1))
        ~until:duration ~low:3_000_000.0 ~high:5_500_000.0 ();
      conn)

(* closed-loop FCT microbench: flows run to completion one at a time on
   private clocks; the fleet axis multiplies how many are measured *)
let short_flows ctx (p : Spec.run_params) =
  let conns = ref [] in
  let mk_conn ~seed =
    let conn = connect ctx ~seed:(p.Spec.seed + seed) p (mininet ~rtt_ratio:4.0 p) in
    attach ctx conn;
    conns := conn :: !conns;
    conn
  in
  let set_register i v conn = R.Api.set_register (Connection.sock conn) i v in
  let size = 50_000 and reps = 10 * p.Spec.fleet in
  let fct, wire, completed =
    Apps.Workload.measure_flows ~before_write:(set_register 0 1_000_000)
      ~after_write:(set_register 1 1) ~mk_conn ~size ~reps ()
  in
  let result =
    {
      (blank p) with
      r_delivered = completed * size;
      r_goodput_bps =
        (if fct > 0.0 then 8.0 *. float_of_int size /. fct else 0.0);
      r_completion = (if completed = reps then Some fct else None);
      r_extra =
        [
          ("completed", float_of_int completed);
          ("mean_fct_ms", fct *. 1e3);
          ("mean_wire_bytes", wire);
        ];
    }
  in
  { result; conns = List.rev !conns; links = [] }

let http2 ctx p =
  let handles = ref [] in
  let extra () =
    let results = List.rev_map Apps.Http2.finish !handles in
    let oks = List.filter_map Fun.id results in
    if List.length oks <> List.length results then
      [ ("incomplete", float_of_int (List.length results - List.length oks)) ]
    else
      let n = float_of_int (List.length oks) in
      let mean f = List.fold_left (fun a r -> a +. f r) 0.0 oks /. n in
      let sum f = List.fold_left (fun a r -> a + f r) 0 oks in
      [
        ("dependency_ms", mean (fun r -> r.Apps.Http2.dependency_time) *. 1e3);
        ( "initial_view_ms",
          mean (fun r -> r.Apps.Http2.initial_view_time) *. 1e3 );
        ("full_load_ms", mean (fun r -> r.Apps.Http2.full_load_time) *. 1e3);
        ("wifi_bytes", float_of_int (sum (fun r -> r.Apps.Http2.wifi_bytes)));
        ("lte_bytes", float_of_int (sum (fun r -> r.Apps.Http2.lte_bytes)));
      ]
  in
  (* the page-load horizon: start at 0.2 s plus a 120 s timeout *)
  hosted ~until:120.2 ~extra ctx p (fun ~clock ~seed ->
      let conn = connect ctx ~clock ~seed p (lossy_wifi_lte p) in
      ctx.instrument conn;
      handles := Apps.Http2.start conn Apps.Http2.optimized_page :: !handles;
      conn)

let dash ctx p =
  let sessions = ref [] in
  let extra () =
    let outcomes = List.rev_map Apps.Dash.evaluate !sessions in
    let sum f = List.fold_left (fun a o -> a + f o) 0 outcomes in
    [
      ( "deadline_misses",
        float_of_int (sum (fun o -> o.Apps.Dash.deadline_misses)) );
      ( "worst_lateness_ms",
        List.fold_left
          (fun a o -> Float.max a o.Apps.Dash.worst_lateness)
          0.0 outcomes
        *. 1e3 );
      ("backup_bytes", float_of_int (sum (fun o -> o.Apps.Dash.backup_bytes)));
    ]
  in
  hosted ~extra ctx p (fun ~clock ~seed ->
      let conn = connect ctx ~clock ~seed p (lossy_wifi_lte p) in
      attach ctx conn;
      sessions :=
        Apps.Dash.start ~period:0.5
          ~count:(int_of_float (ctx.duration /. 0.75))
          ~chunk_bytes:(fun _ -> 400_000)
          conn
        :: !sessions;
      conn)

(* Per-group topology of the open-loop [fleet] scenario: two shared
   paths of equal bandwidth and unequal delay (the heterogeneous-path
   setting of §5), each a data/ack link pair shared by every connection
   the group hosts. *)
let group_paths ~bandwidth ~buffer_bytes ~loss =
  let base = { Link.default_params with Link.bandwidth; loss; buffer_bytes } in
  [
    Path_manager.symmetric ~name:"near" { base with Link.delay = 0.01 };
    Path_manager.symmetric ~name:"far" { base with Link.delay = 0.03 };
  ]

let fleet_group_paths =
  group_paths ~bandwidth:1_250_000.0 ~buffer_bytes:(128 * 1024)

(* Thin-access variant for the million-connection rung: 1/100 the
   bandwidth with shallow buffers (an edge box serving many mostly-idle
   subscribers). The shallow queue keeps the per-group standing queue —
   and thus spurious-RTO churn from bufferbloat — bounded, so event cost
   per connection stays flat as the group count climbs into the
   thousands. *)
let fleet_thin_paths =
  group_paths ~bandwidth:12_500.0 ~buffer_bytes:(16 * 1024)

let drive_arrivals fleet ~seed ~rate ~until dist =
  let size_rng = Rng.stream ~seed (-1_000_001) in
  let arrival_rng = Rng.stream ~seed (-1_000_002) in
  Traffic.drive ~clock:(Fleet.clock fleet) ~rng:arrival_rng ~rate ~until
    (fun () -> Fleet.arrive fleet ~size:(Traffic.draw_size dist size_rng))

(* open-loop hosting: [p.fleet] shared-link groups, Poisson arrivals at
   [p.rate] flows/s (ramped by the diurnal script), heavy-tailed sizes,
   slots recycled on completion. Transient connections make
   per-connection hooks inapplicable here. *)
let fleet ctx (p : Spec.run_params) =
  let dist =
    match Traffic.parse_size p.Spec.size with
    | Ok d -> d
    | Error msg -> invalid_arg msg
  in
  let fleet =
    Fleet.create ~seed:p.Spec.seed ~cc:(cc_of p)
      ~scheduler:(ctx.scheduler, p.Spec.engine)
      ~groups:p.Spec.fleet
      ~paths:(fleet_group_paths ~loss:p.Spec.loss)
      ()
  in
  drive_arrivals fleet ~seed:p.Spec.seed
    ~rate:(fun t -> Traffic.rate_at ~ramp:ctx.ramp ~base:p.Spec.rate t)
    ~until:ctx.duration dist;
  ignore (Fleet.run ~until:ctx.duration fleet);
  let tot = Fleet.totals fleet in
  let sim_time = Eventq.now (Fleet.clock fleet) in
  let result =
    {
      (blank p) with
      r_sim_time = sim_time;
      r_delivered = tot.Fleet.t_delivered_bytes;
      r_goodput_bps =
        (if sim_time > 0.0 then
           8.0 *. float_of_int tot.Fleet.t_delivered_bytes /. sim_time
         else 0.0);
      r_executions = tot.Fleet.t_executions;
      r_pushes = tot.Fleet.t_pushes;
      r_extra =
        [
          ("arrivals", float_of_int tot.Fleet.t_arrivals);
          ("completed", float_of_int tot.Fleet.t_completed);
          ("peak_live", float_of_int tot.Fleet.t_peak_live);
          ("live_end", float_of_int tot.Fleet.t_live);
          ("mean_fct_ms", Fleet.mean_fct fleet *. 1e3);
          ("wire_bytes", float_of_int tot.Fleet.t_wire_bytes);
        ];
    }
  in
  { result; conns = []; links = [] }

(* shared-bottleneck fairness probe: one MPTCP connection over every
   route of the topology competes with a single-path Reno cross-flow on
   the first named link, both driven by saturating CBR sources.
   Reported: per-flow goodputs, their Jain index, the MPTCP/single
   throughput ratio (the RFC 6356 friendliness number), and per-link
   drop/occupancy counters. *)
let fairness ctx (p : Spec.run_params) =
  let topo =
    match ctx.topology with
    | Some t -> t
    | None -> invalid_arg "fairness needs a shared-link topology"
  in
  let duration = ctx.duration in
  let clock = Eventq.create () in
  let built = Topology.build ~seed:p.Spec.seed ~clock topo in
  let mptcp =
    Topology.connect ~seed:p.Spec.seed ~cc:(cc_of p)
      ~scheduler:(instance ctx p) built
  in
  attach ctx mptcp;
  let via = (List.hd (Topology.spec built).Topology.t_links).Topology.l_name in
  let bg =
    Topology.single built ~seed:(Rng.stream_seed ~seed:p.Spec.seed 1) ~via ()
  in
  let saturate conn =
    Apps.Workload.cbr conn ~start:0.1 ~stop:duration ~interval:0.05
      ~rate:(fun _ -> 2_000_000.0)
  in
  saturate mptcp;
  saturate bg;
  ignore (Eventq.run ~until:duration clock);
  let span = Float.max 1e-9 (duration -. 0.1) in
  let goodput conn =
    8.0 *. float_of_int (Connection.delivered_bytes conn) /. span
  in
  let g_mptcp = goodput mptcp and g_single = goodput bg in
  let links = Topology.stats built in
  let link_extras =
    List.concat_map
      (fun (st : Topology.link_stats) ->
        [
          ( Fmt.str "link_%s_drops" st.Topology.ls_name,
            float_of_int
              (st.Topology.ls_tail_dropped + st.Topology.ls_red_dropped) );
          ( Fmt.str "link_%s_occ_mean" st.Topology.ls_name,
            st.Topology.ls_mean_backlog );
          ( Fmt.str "link_%s_occ_peak" st.Topology.ls_name,
            float_of_int st.Topology.ls_peak_backlog );
        ])
      links
  in
  let meta = mptcp.Connection.meta in
  let result =
    {
      (blank p) with
      r_sim_time = Eventq.now clock;
      r_delivered =
        Connection.delivered_bytes mptcp + Connection.delivered_bytes bg;
      r_goodput_bps = g_mptcp;
      r_executions = meta.Meta_socket.sched_executions;
      r_pushes = meta.Meta_socket.pushes;
      r_subflow_bytes = Connection.bytes_sent_per_subflow mptcp;
      r_extra =
        [
          ("mptcp_goodput_bps", g_mptcp);
          ("single_goodput_bps", g_single);
          ("mptcp_share", if g_single > 0.0 then g_mptcp /. g_single else 0.0);
          ("jain", Stats.jain [ g_mptcp; g_single ]);
        ]
        @ link_extras;
    }
  in
  { result; conns = [ mptcp; bg ]; links }

let registry =
  [
    ("bulk", bulk);
    ("stream", stream);
    ("short-flows", short_flows);
    ("http2", http2);
    ("dash", dash);
    ("fleet", fleet);
    ("fairness", fairness);
  ]

let names = List.map fst registry

let run ctx (p : Spec.run_params) =
  match List.assoc_opt p.Spec.scenario registry with
  | Some scenario -> scenario ctx p
  | None -> Fmt.invalid_arg "unknown scenario %s" p.Spec.scenario
