(** Fleet hosting: many concurrent MPTCP connections in one simulated
    process (one shared {!Eventq}), the simulator-side analogue of a
    kernel serving heavy multi-user traffic. Connections arrive, run
    one bounded transfer over their group's shared links, complete and
    are retired into a per-group free slot pool, so long open-loop
    campaigns reuse slot state instead of growing without bound.

    Slot lifecycle: a slot owns one connection {e shell} — its
    {!Connection.t}, meta socket, socket environment and subflows,
    wired to the slot's private scheduler instance — built at the
    slot's first arrival. Retirement scraps the flow
    ({!Connection.scrap}: packets and in-flight entries go back to the
    fleet arenas, timers are disarmed, and each subflow's incarnation
    is bumped); the next arrival on the slot resets the shell in place
    ({!Connection.recycle}) instead of building a new object graph.
    Events of the retired flow still in flight on the shared links —
    duplicate copies, acks, a far path's handshake — carry the old
    incarnation and do nothing when they fire, so they can neither
    touch the next flow's state nor run the scheduler. A shell keeps
    its wiring (callbacks, congestion hooks, ack cells) and its
    buffers up to a small cap; buffers grown past it go back to their
    initial size at the reset.

    Memory: every fleet owns a packet arena ({!Progmp_runtime.Packet.Pool})
    and an in-flight entry pool ({!Tcp_subflow.entry_pool}); a retiring
    connection's packets and entries are released back through
    {!Connection.scrap}, bounding per-packet structures by peak
    in-flight data rather than total arrivals.

    Determinism: a fleet is single-domain; every stochastic input is
    derived from the fleet seed via {!Rng.stream}/{!Rng.stream_seed}
    keyed by arrival index (connections) or a reserved negative index
    range (links), so a fleet run is a pure function of its
    configuration and the arrival sequence. Arrivals are placed on
    groups by arrival index ([aid mod groups]), and each group recycles
    its own slots, so group-local state (scheduler scratch, slot
    recycle order) is a pure function of the group's own arrival
    subsequence — which is what makes domain sharding by group
    ({!create}'s [shard]) agree with an unsharded run on aggregate
    totals. *)

module R = Progmp_runtime

(* ---------- link groups ---------- *)

(* One shared-bottleneck environment: a data/ack link pair per declared
   path, shared by every connection the group hosts, plus the group's
   private slot pool. Link RNG streams use negative stream indices so
   they can never collide with the arrival-indexed connection streams;
   they are keyed by the GLOBAL group id, so a shard hosting a subset
   of the groups drives exactly the link streams the unsharded fleet
   would. *)
type group = {
  group_id : int;  (** global id (shards host a subset) *)
  paths : Path_manager.path_spec list;  (** over the group's shared links *)
  mutable g_free : slot list;
      (** this group's retired slots; per-group pools keep slot-recycle
          order (and so private-scheduler scratch reuse) a function of
          the group's own arrivals, independent of sharding *)
}

(* ---------- slots ---------- *)

(* A slot hosts at most one live flow at a time and survives
   retirement: its connection shell and its private scheduler instance
   (engine scratch) are reused by every flow recycled through it. The
   engine's compiled code is shared by all slots; a new slot only
   allocates scratch, and its shell waits for the first arrival (so
   {!create} builds none). *)
and slot = {
  slot_id : int;
  group : group;
  sched : R.Scheduler.t option;
  mutable shell : Connection.t option;  (** built at the first arrival *)
  mutable flow_size : int;
  mutable arrived_at : float;
  mutable retiring : bool;
  mutable live_idx : int;  (** position in the live-slot array; -1 = not live *)
}

let make_group ~clock ~seed ~paths group_id =
  let paths =
    List.mapi
      (fun pi spec ->
        let base = 2 * ((group_id * List.length paths) + pi) in
        let data_link =
          Link.create ~params:spec.Path_manager.up ~clock
            ~rng:(Rng.stream ~seed (-1 - base))
            ()
        in
        let ack_link =
          Link.create ~params:spec.Path_manager.down ~clock
            ~rng:(Rng.stream ~seed (-2 - base))
            ()
        in
        { spec with Path_manager.links = Some (data_link, ack_link) })
      paths
  in
  { group_id; paths; g_free = [] }

type totals = {
  t_arrivals : int;
  t_completed : int;
  t_live : int;
  t_peak_live : int;
  t_delivered_bytes : int;
  t_wire_bytes : int;
  t_executions : int;
  t_pushes : int;
  t_fct_sum : float;  (** over completed flows *)
}

type t = {
  clock : Eventq.t;
  seed : int;
  mss : int;
  rcv_buffer : int;
  cc : Congestion.policy;
  scheduler : (R.Scheduler.t * string) option;
  total_groups : int;  (** across all shards *)
  shard_idx : int;
  shard_count : int;
  groups : group array;  (** the groups this shard owns, local index *)
  packet_pool : R.Packet.Pool.t;
  release_pkt : R.Packet.t -> unit;  (** [packet_pool]'s release, built once *)
  entry_pool : Tcp_subflow.entry_pool;
  mutable slot_count : int;
  mutable next_arrival : int;
  (* harvested counters: retired flows only; live state is summed on
     demand by {!totals} *)
  mutable arrivals : int;
  mutable completed : int;
  mutable live : int;
  mutable peak_live : int;
  mutable delivered_bytes : int;
  mutable wire_bytes : int;
  mutable executions : int;
  mutable pushes : int;
  mutable fct_sum : float;
  (* live-slot array with per-slot back index: O(1) insert and remove.
     (The list version removed by List.filter, an O(live) scan per
     retire — the quadratic term that dominated the 100k rung.) *)
  mutable live_arr : slot array;  (** first [live_len] entries are live *)
  mutable live_len : int;
  mutable on_retire : fct:float -> size:int -> delivered:int -> unit;
}

let create ?clock ?(seed = 42) ?(mss = 1448) ?(rcv_buffer = 4 lsl 20)
    ?(cc = Congestion.Lia) ?scheduler ?(groups = 1) ?(shard = (0, 1)) ~paths ()
    =
  if groups < 1 then Fmt.invalid_arg "Fleet.create: groups %d < 1" groups;
  if paths = [] then invalid_arg "Fleet.create: no paths";
  let shard_idx, shard_count = shard in
  if shard_count < 1 || shard_idx < 0 || shard_idx >= shard_count then
    Fmt.invalid_arg "Fleet.create: shard (%d, %d) invalid" shard_idx
      shard_count;
  if shard_count > groups then
    Fmt.invalid_arg "Fleet.create: %d shards need >= that many groups (%d)"
      shard_count groups;
  let clock =
    match clock with
    | Some c -> c
    | None ->
        (* Derive the wheel tick from the smallest propagation delay in
           the topology: bucket granularity tracks the event spacing the
           links actually produce. Timestamps are unaffected. *)
        let min_delay =
          List.fold_left
            (fun m (s : Path_manager.path_spec) ->
              Float.min m
                (Float.min s.Path_manager.up.Link.delay
                   s.Path_manager.down.Link.delay))
            Float.infinity paths
        in
        Eventq.create ~quantum:(Eventq.derive_quantum ~min_delay) ()
  in
  (* this shard owns the global groups { g | g mod shard_count = shard_idx } *)
  let owned = (groups - shard_idx + shard_count - 1) / shard_count in
  let packet_pool = R.Packet.Pool.create () in
  {
    clock;
    seed;
    mss;
    rcv_buffer;
    cc;
    scheduler;
    total_groups = groups;
    shard_idx;
    shard_count;
    groups =
      Array.init owned (fun i ->
          make_group ~clock ~seed ~paths ((i * shard_count) + shard_idx));
    packet_pool;
    release_pkt = R.Packet.Pool.release packet_pool;
    entry_pool = Tcp_subflow.entry_pool ();
    slot_count = 0;
    next_arrival = 0;
    arrivals = 0;
    completed = 0;
    live = 0;
    peak_live = 0;
    delivered_bytes = 0;
    wire_bytes = 0;
    executions = 0;
    pushes = 0;
    fct_sum = 0.0;
    live_arr = [||];
    live_len = 0;
    on_retire = (fun ~fct:_ ~size:_ ~delivered:_ -> ());
  }

let clock t = t.clock
let packet_pool t = t.packet_pool
let entry_pool t = t.entry_pool

let set_on_retire t f = t.on_retire <- f

let live_push t slot =
  if t.live_len = Array.length t.live_arr then begin
    let bigger = Array.make (max 16 (2 * t.live_len)) slot in
    Array.blit t.live_arr 0 bigger 0 t.live_len;
    t.live_arr <- bigger
  end;
  t.live_arr.(t.live_len) <- slot;
  slot.live_idx <- t.live_len;
  t.live_len <- t.live_len + 1

let live_remove t slot =
  let i = slot.live_idx in
  let last = t.live_len - 1 in
  let moved = t.live_arr.(last) in
  t.live_arr.(i) <- moved;
  moved.live_idx <- i;
  (* the stale tail reference is harmless: the slot is retained by its
     group's free pool anyway *)
  t.live_len <- last;
  slot.live_idx <- -1

let new_slot t group =
  let slot_id = t.slot_count in
  t.slot_count <- slot_id + 1;
  {
    slot_id;
    group;
    sched =
      (match t.scheduler with
      | None -> None
      | Some (s, engine) -> Some (R.Scheduler.instantiate_private s ~engine));
    shell = None;
    flow_size = 0;
    arrived_at = 0.0;
    retiring = false;
    live_idx = -1;
  }

let harvest_conn t conn =
  t.delivered_bytes <- t.delivered_bytes + Connection.delivered_bytes conn;
  let meta = conn.Connection.meta in
  t.executions <- t.executions + meta.Meta_socket.sched_executions;
  t.pushes <- t.pushes + meta.Meta_socket.pushes;
  List.iter
    (fun m ->
      t.wire_bytes <-
        t.wire_bytes + m.Path_manager.subflow.Tcp_subflow.bytes_sent)
    conn.Connection.paths

let retire t slot =
  match slot.shell with
  | Some conn when slot.live_idx >= 0 ->
      let fct = Eventq.now t.clock -. slot.arrived_at in
      let delivered = Connection.delivered_bytes conn in
      harvest_conn t conn;
      t.fct_sum <- t.fct_sum +. fct;
      t.completed <- t.completed + 1;
      t.live <- t.live - 1;
      (* Release the flow's packets and in-flight entries back to the
         fleet arenas and disarm its timers, so the shell holds no
         pending heap nodes of its own. The scrap also bumps every
         subflow's incarnation: the flow's segments, acks and
         handshakes still in flight on the shared links fire inert —
         they no longer reach the meta socket or the scheduler. *)
      Connection.scrap conn ~release_pkt:t.release_pkt;
      live_remove t slot;
      slot.group.g_free <- slot :: slot.group.g_free;
      t.on_retire ~fct ~size:slot.flow_size ~delivered
  | Some _ | None -> ()

(* The slot's connection, wired once: the slot's scheduler instance and
   a delivery hook that retires the slot's current flow once complete. *)
let build_shell t slot ~seed =
  let conn =
    Connection.create ~seed ~mss:t.mss ~rcv_buffer:t.rcv_buffer ~cc:t.cc
      ~entry_pool:t.entry_pool ~packet_pool:t.packet_pool ?scheduler:slot.sched
      ~clock:t.clock ~paths:slot.group.paths ()
  in
  let meta = conn.Connection.meta in
  let retire_slot () = retire t slot in
  meta.Meta_socket.on_deliver <-
    (fun ~seq:_ ~size:_ ~time:_ ->
      if
        (not slot.retiring)
        && meta.Meta_socket.delivered_bytes >= slot.flow_size
      then begin
        slot.retiring <- true;
        (* retire from a fresh event, not from inside ack processing *)
        Eventq.post t.clock ~at:(Eventq.now t.clock) retire_slot
      end);
  slot.shell <- Some conn;
  conn

(** One open-loop arrival: every shard of a fleet sees the same global
    arrival sequence and hosts only the arrivals whose group
    ([aid mod groups]) it owns — the caller (one traffic generator per
    shard, identical streams) calls this for {e every} arrival.
    Hosting an arrival takes a slot from the group's free pool (or
    grows the fleet), recycles the slot's connection shell (building it
    over the group's shared links at the slot's first arrival) with an
    arrival-indexed independent seed, and writes [size] bytes. The flow
    retires itself — back into its group's pool — once the receiver has
    delivered it whole. *)
let arrive t ~size =
  if size <= 0 then Fmt.invalid_arg "Fleet.arrive: size %d <= 0" size;
  let aid = t.next_arrival in
  t.next_arrival <- aid + 1;
  let g = aid mod t.total_groups in
  if g mod t.shard_count = t.shard_idx then begin
    let group = t.groups.(g / t.shard_count) in
    let slot =
      match group.g_free with
      | s :: rest ->
          group.g_free <- rest;
          s
      | [] -> new_slot t group
    in
    let seed = Rng.stream_seed ~seed:t.seed aid in
    let conn =
      match slot.shell with
      | Some conn ->
          Connection.recycle conn ~seed;
          conn
      | None -> build_shell t slot ~seed
    in
    slot.flow_size <- size;
    slot.arrived_at <- Eventq.now t.clock;
    slot.retiring <- false;
    t.arrivals <- t.arrivals + 1;
    t.live <- t.live + 1;
    if t.live > t.peak_live then t.peak_live <- t.live;
    live_push t slot;
    Meta_socket.enqueue conn.Connection.meta size
  end

let run ?until t = Eventq.run ?until t.clock

let live t = t.live
let peak_live t = t.peak_live
let arrivals t = t.arrivals
let completed t = t.completed
let slot_count t = t.slot_count

let mean_fct t =
  if t.completed = 0 then 0.0 else t.fct_sum /. float_of_int t.completed

(** Visit the connection of every live flow, in no particular order. *)
let iter_live t f =
  for i = 0 to t.live_len - 1 do
    Option.iter f t.live_arr.(i).shell
  done

(** Visit every packet currently referenced by a live connection — queues, subflow rings and receiver buffers; the
    reachability side of the arena-recycling property tests. *)
let iter_live_packets t f =
  iter_live t (fun conn ->
      let e = Meta_socket.env conn.Connection.meta in
      R.Pqueue.iter e.R.Env.q f;
      R.Pqueue.iter e.R.Env.qu f;
      R.Pqueue.iter e.R.Env.rq f;
      List.iter
        (fun m -> Tcp_subflow.iter_packets m.Path_manager.subflow f)
        conn.Connection.paths)

(** Aggregate counters: harvested (retired) flows plus the current state
    of live connections. *)
let totals t =
  let acc = ref (t.delivered_bytes, t.wire_bytes, t.executions, t.pushes) in
  let add conn =
    let d, w, e, p = !acc in
    let meta = conn.Connection.meta in
    let wire =
      List.fold_left
        (fun n m -> n + m.Path_manager.subflow.Tcp_subflow.bytes_sent)
        0 conn.Connection.paths
    in
    acc :=
      ( d + Connection.delivered_bytes conn,
        w + wire,
        e + meta.Meta_socket.sched_executions,
        p + meta.Meta_socket.pushes )
  in
  iter_live t add;
  let d, w, e, p = !acc in
  {
    t_arrivals = t.arrivals;
    t_completed = t.completed;
    t_live = t.live;
    t_peak_live = t.peak_live;
    t_delivered_bytes = d;
    t_wire_bytes = w;
    t_executions = e;
    t_pushes = p;
    t_fct_sum = t.fct_sum;
  }

(** Sum totals across shards; [t_peak_live] adds per-shard peaks, an
    upper bound on the true global peak (shards peak at their own
    times). *)
let merge_totals (a : totals) (b : totals) =
  {
    t_arrivals = a.t_arrivals + b.t_arrivals;
    t_completed = a.t_completed + b.t_completed;
    t_live = a.t_live + b.t_live;
    t_peak_live = a.t_peak_live + b.t_peak_live;
    t_delivered_bytes = a.t_delivered_bytes + b.t_delivered_bytes;
    t_wire_bytes = a.t_wire_bytes + b.t_wire_bytes;
    t_executions = a.t_executions + b.t_executions;
    t_pushes = a.t_pushes + b.t_pushes;
    t_fct_sum = a.t_fct_sum +. b.t_fct_sum;
  }
