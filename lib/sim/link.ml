(** Unidirectional path model: serialization at a (possibly fluctuating)
    bottleneck rate, propagation delay, optional jitter, random loss
    (Bernoulli or bursty Gilbert–Elliott), a bottleneck buffer governed
    by a queue discipline (drop-tail, or RED-style AQM) and an up/down
    state for scripted outages (handover, WiFi flaps).

    This is the stand-in for the paper's Mininet links (Figs. 10, 12) and
    for the in-the-wild WiFi/LTE paths (Figs. 1, 13, 14): the schedulers
    under study only observe path {e behaviour} (RTT, loss, rate), which
    these parameters produce. A link may be shared by several subflows,
    connections and background flows ({!Topology}): competition is
    serialized honestly on the one [busy_until] horizon and backlog
    ring. *)

(** RED (random early detection) AQM configuration: arrivals are dropped
    probabilistically once the EWMA of the queue occupancy exceeds
    [red_min] bytes, with the drop probability ramping linearly to
    [red_pmax] at [red_max] and a forced drop above it — the classic
    Floyd/Jacobson gentle-mode mechanics, including the uniformization
    count that spaces early drops out. *)
type red = {
  red_min : int;  (** min threshold on the averaged backlog, bytes *)
  red_max : int;  (** max threshold, bytes *)
  red_pmax : float;  (** drop probability at [red_max] *)
  red_weight : float;  (** EWMA weight of the instantaneous backlog *)
}

type qdisc = Drop_tail | Red of red

let default_red =
  { red_min = 32 * 1024; red_max = 128 * 1024; red_pmax = 0.1;
    red_weight = 0.05 }

type params = {
  bandwidth : float;  (** bytes per second at the bottleneck *)
  delay : float;  (** one-way propagation delay, seconds *)
  loss : float;  (** packet loss probability in [0, 1] *)
  jitter : float;  (** std-dev of gaussian delay noise, seconds *)
  buffer_bytes : int;  (** bottleneck buffer size (hard drop-tail cap) *)
  qdisc : qdisc;  (** queueing discipline at the bottleneck buffer *)
}

let default_params =
  {
    bandwidth = 1_250_000.0 (* 10 Mbit/s *);
    delay = 0.010;
    loss = 0.0;
    jitter = 0.0;
    buffer_bytes = 256 * 1024;
    qdisc = Drop_tail;
  }

(** Gilbert–Elliott two-state loss process: per packet the chain first
    moves (good -> bad with [p_enter], bad -> good with [p_exit]), then
    the packet is lost with the state's loss probability — [params.loss]
    in the good state, [loss_bad] in the bad state. Burstiness comes from
    the chain dwelling in the bad state for ~1/[p_exit] packets. *)
type gilbert = {
  p_enter : float;  (** good -> bad transition probability per packet *)
  p_exit : float;  (** bad -> good transition probability per packet *)
  loss_bad : float;  (** loss probability while in the bad state *)
  mutable bad : bool;  (** current chain state *)
}

type loss_model = Bernoulli | Gilbert of gilbert

(* The link's float state in a record of floats only: OCaml stores such
   a record's fields unboxed, so the per-packet updates of the
   serialization horizon, the RED average and the occupancy integral
   write in place, where a float field of the mixed record below would
   allocate a fresh box on every write. *)
type floats = {
  mutable busy_until : float;  (** bottleneck serialization horizon *)
  mutable red_avg : float;
  mutable occ_integral : float;
  mutable occ_last : float;
}

type t = {
  mutable params : params;
  rng : Rng.t;
  clock : Eventq.t;
  mutable up : bool;  (** a down link delivers nothing in either state *)
  mutable loss_model : loss_model;
  f : floats;
  (* Backlog accounting ring: (serialization completion time, bytes) of
     packets accepted into the bottleneck buffer, oldest at [q_head] —
     byte-accurate and immune to later bandwidth changes. Completion
     times are admitted in nondecreasing order (the serialization
     horizon only advances), so expiry is always a prefix of the ring
     and {!backlog_bytes} prunes from the head in O(expired) with a
     running byte total, where the list representation rebuilt and
     re-summed the whole backlog on every call. *)
  mutable q_time : float array;
  mutable q_size : int array;
  mutable q_head : int;
  mutable q_len : int;
  mutable q_bytes : int;  (** sum of live [q_size] entries *)
  (* RED state (meaningful only under [Red _]): the EWMA of the backlog
     at arrival instants is [f.red_avg]; this is the
     packets-since-last-drop uniformization count (-1 while the average
     sits below the min threshold). *)
  mutable red_count : int;
  (* Occupancy bookkeeping for per-link reports: exact time integral of
     the piecewise-constant backlog ([f.occ_integral] up to
     [f.occ_last]; entries leave at their recorded
     serialization-completion instants) and the peak. *)
  mutable peak_backlog : int;
  mutable delivered : int;  (** packets that made it across *)
  mutable lost : int;  (** random losses *)
  mutable tail_dropped : int;  (** buffer overflows *)
  mutable red_dropped : int;  (** AQM early drops *)
  mutable lost_down : int;  (** packets destroyed by a down link *)
}

let validate_bandwidth ctx bw =
  if not (Float.is_finite bw && bw > 0.0) then
    Fmt.invalid_arg "%s: bandwidth must be positive and finite, got %g" ctx bw

let validate_qdisc ctx = function
  | Drop_tail -> ()
  | Red r ->
      if r.red_min < 0 || r.red_max <= r.red_min then
        Fmt.invalid_arg "%s: RED thresholds must satisfy 0 <= min < max, got %d/%d"
          ctx r.red_min r.red_max;
      if not (r.red_pmax > 0.0 && r.red_pmax <= 1.0) then
        Fmt.invalid_arg "%s: RED max drop probability %g out of (0, 1]" ctx
          r.red_pmax;
      if not (r.red_weight > 0.0 && r.red_weight <= 1.0) then
        Fmt.invalid_arg "%s: RED averaging weight %g out of (0, 1]" ctx
          r.red_weight

let create ?(params = default_params) ~clock ~rng () =
  validate_bandwidth "Link.create" params.bandwidth;
  validate_qdisc "Link.create" params.qdisc;
  {
    params;
    rng;
    clock;
    up = true;
    loss_model = Bernoulli;
    f = { busy_until = 0.0; red_avg = 0.0; occ_integral = 0.0; occ_last = 0.0 };
    q_time = Array.make 64 0.0;
    q_size = Array.make 64 0;
    q_head = 0;
    q_len = 0;
    q_bytes = 0;
    red_count = -1;
    peak_backlog = 0;
    delivered = 0;
    lost = 0;
    tail_dropped = 0;
    red_dropped = 0;
    lost_down = 0;
  }

(** Change the bottleneck rate at runtime (bandwidth fluctuation, e.g.
    the WiFi throughput dips of Fig. 13). Packets already serialized or
    queued keep the arrival times and byte accounting they were admitted
    with; only subsequent transmissions see the new rate.
    @raise Invalid_argument when [bw] is zero, negative or not finite —
    a non-positive rate would push [busy_until] to infinity and wedge
    the simulation. *)
let set_bandwidth t bw =
  validate_bandwidth "Link.set_bandwidth" bw;
  t.params <- { t.params with bandwidth = bw }

let set_delay t d = t.params <- { t.params with delay = d }

(** Change the (good-state) loss probability. Loss is decided when a
    packet enters the bottleneck, so packets already in flight are
    unaffected. *)
let set_loss t l = t.params <- { t.params with loss = l }

(** Switch the bottleneck queue discipline at runtime. RED averaging
    state restarts from the current instantaneous backlog. *)
let set_qdisc t q =
  validate_qdisc "Link.set_qdisc" q;
  t.f.red_avg <- float_of_int t.q_bytes;
  t.red_count <- -1;
  t.params <- { t.params with qdisc = q }

(** Switch to a Gilbert–Elliott burst-loss process (chain starts in the
    good state). [params.loss] remains the good-state loss. *)
let set_gilbert t ~p_enter ~p_exit ~loss_bad =
  t.loss_model <- Gilbert { p_enter; p_exit; loss_bad; bad = false }

(** Back to independent (Bernoulli) losses at [params.loss]. *)
let set_bernoulli t = t.loss_model <- Bernoulli

(** Take the link down: packets sent while down are destroyed without
    consuming serialization time, and packets still in the air are lost
    at their arrival instant. Idempotent. *)
let set_down t = t.up <- false

(** Bring the link back up. Idempotent; only packets transmitted after
    this instant can be delivered. *)
let set_up t = t.up <- true

let is_up t = t.up

let bandwidth t = t.params.bandwidth

let delay t = t.params.delay

(** Serialization horizon: the absolute time at which everything
    currently queued at the bottleneck will have been put on the wire. *)
let busy_until t = t.f.busy_until

(* Admit [size] bytes that leave the buffer at the current
   serialization horizon. *)
let queue_push t ~size =
  let cap = Array.length t.q_time in
  if t.q_len = cap then begin
    let time' = Array.make (2 * cap) 0.0 and size' = Array.make (2 * cap) 0 in
    for i = 0 to t.q_len - 1 do
      time'.(i) <- t.q_time.((t.q_head + i) mod cap);
      size'.(i) <- t.q_size.((t.q_head + i) mod cap)
    done;
    t.q_time <- time';
    t.q_size <- size';
    t.q_head <- 0
  end;
  let tail = (t.q_head + t.q_len) mod Array.length t.q_time in
  t.q_time.(tail) <- t.f.busy_until;
  t.q_size.(tail) <- size;
  t.q_len <- t.q_len + 1;
  t.q_bytes <- t.q_bytes + size;
  if t.q_bytes > t.peak_backlog then t.peak_backlog <- t.q_bytes

(** Bytes currently sitting in the bottleneck buffer (waiting for
    serialization), across all users of the link. Tracked per packet at
    admission time, so a later {!set_bandwidth} cannot retroactively
    change what the buffer holds. Pruning also advances the exact
    occupancy time integral behind {!mean_backlog}: each expired entry
    leaves at its recorded completion instant, so the integral of the
    piecewise-constant backlog needs no extra events. *)
let backlog_bytes t =
  let now = Eventq.now t.clock in
  let f = t.f in
  while t.q_len > 0 && t.q_time.(t.q_head) <= now do
    let leave = t.q_time.(t.q_head) in
    f.occ_integral <-
      f.occ_integral +. (float_of_int t.q_bytes *. (leave -. f.occ_last));
    f.occ_last <- leave;
    t.q_bytes <- t.q_bytes - t.q_size.(t.q_head);
    t.q_head <- (t.q_head + 1) mod Array.length t.q_time;
    t.q_len <- t.q_len - 1
  done;
  if now > f.occ_last then begin
    f.occ_integral <-
      f.occ_integral +. (float_of_int t.q_bytes *. (now -. f.occ_last));
    f.occ_last <- now
  end;
  t.q_bytes

(** Time-averaged bottleneck occupancy in bytes, from the link's
    creation to now (exact integral of the backlog). *)
let mean_backlog t =
  let now = Eventq.now t.clock in
  ignore (backlog_bytes t);
  if now <= 0.0 then 0.0 else t.f.occ_integral /. now

let peak_backlog t = t.peak_backlog

(* Per-packet loss decision; advances the Gilbert–Elliott chain. *)
let draw_loss t =
  match t.loss_model with
  | Bernoulli -> Rng.coin t.rng ~p:t.params.loss
  | Gilbert g ->
      (if g.bad then begin
         if Rng.coin t.rng ~p:g.p_exit then g.bad <- false
       end
       else if Rng.coin t.rng ~p:g.p_enter then g.bad <- true);
      Rng.coin t.rng ~p:(if g.bad then g.loss_bad else t.params.loss)

(* RED early-drop decision at admission: EWMA the instantaneous backlog,
   force-drop above max_th, ramp the probability linearly between the
   thresholds, and uniformize with the count-since-last-drop so early
   drops are spaced out rather than clustered (Floyd & Jacobson 1993). *)
let red_drop t (r : red) ~backlog =
  let f = t.f in
  f.red_avg <- f.red_avg +. (r.red_weight *. (float_of_int backlog -. f.red_avg));
  if f.red_avg < float_of_int r.red_min then begin
    t.red_count <- -1;
    false
  end
  else if f.red_avg >= float_of_int r.red_max then begin
    t.red_count <- 0;
    true
  end
  else begin
    t.red_count <- t.red_count + 1;
    let pb =
      r.red_pmax
      *. (f.red_avg -. float_of_int r.red_min)
      /. float_of_int (r.red_max - r.red_min)
    in
    let pa = pb /. Float.max 1e-9 (1.0 -. (float_of_int t.red_count *. pb)) in
    if Rng.coin t.rng ~p:(Float.min 1.0 pa) then begin
      t.red_count <- 0;
      true
    end
    else false
  end

type outcome =
  | Delivered  (** admitted; the arrival is scheduled *)
  | Lost_random
  | Dropped_tail
  | Dropped_red  (** AQM early drop: rejected before occupying the buffer *)
  | Lost_down

(** Total packets rejected at the bottleneck buffer, whatever the
    discipline (drop-tail overflow + AQM early drops). *)
let dropped t = t.tail_dropped + t.red_dropped

(** Record a data packet reaching the far end of the link {e now}:
    counts it delivered and returns [true] when the link is up, counts
    it lost-in-flight and returns [false] when it went down while the
    packet was in the air. Arrival callbacks passed to {!transmit}
    must call this (and give up on [false]). *)
let arrival t =
  if t.up then begin
    t.delivered <- t.delivered + 1;
    true
  end
  else begin
    t.lost_down <- t.lost_down + 1;
    false
  end

(** Send [size] bytes over the link; on success the callback is posted
    as the arrival event {e directly} — no wrapper closure is allocated
    per packet. The callback is responsible for the arrival-time
    bookkeeping: it must start with [if Link.arrival link then ...].
    This is the data hot path of {!Tcp_subflow}, whose per-segment
    arrival closures are built once per in-flight entry. Loss is decided
    at entry (a randomly lost packet still consumes serialization time,
    like a corrupted frame). On a down link the packet is destroyed
    immediately; a packet still in the air when the link goes down is
    destroyed at its arrival time. The arrival is {!Eventq.post}ed:
    O(1) on the timing wheel — arrival times cluster a propagation delay
    ahead of the clock, exactly the near-future band the wheel's level-0
    buckets cover — and on a recycled event cell. *)
let transmit t ~size arrive : outcome =
  let now = Eventq.now t.clock in
  if not t.up then begin
    t.lost_down <- t.lost_down + 1;
    Lost_down
  end
  else begin
    let backlog = backlog_bytes t in
    let red_rejects =
      match t.params.qdisc with
      | Drop_tail -> false
      | Red r -> red_drop t r ~backlog
    in
    if red_rejects then begin
      t.red_dropped <- t.red_dropped + 1;
      Dropped_red
    end
    else if backlog + size > t.params.buffer_bytes then begin
      t.tail_dropped <- t.tail_dropped + 1;
      Dropped_tail
    end
    else begin
      let f = t.f in
      let start = if f.busy_until > now then f.busy_until else now in
      let tx_time = float_of_int size /. t.params.bandwidth in
      f.busy_until <- start +. tx_time;
      queue_push t ~size;
      if draw_loss t then begin
        t.lost <- t.lost + 1;
        Lost_random
      end
      else begin
        (* Zero-mean gaussian jitter on the propagation delay. The
           clamp applies to the {e total} propagation offset, never the
           noise alone: a draw deep in the negative tail cannot deliver
           before serialization completes ([busy_until] is the floor),
           and as long as [jitter] is small against [delay] the clamp
           almost never fires, so the documented zero mean is
           preserved (clipping the noise at zero instead turned the
           distribution into a half-gaussian and silently inflated the
           mean one-way delay by jitter/sqrt(2*pi)). *)
        let prop =
          if t.params.jitter > 0.0 then
            Float.max 0.0
              (t.params.delay +. (Rng.gaussian t.rng *. t.params.jitter))
          else t.params.delay
        in
        Eventq.post t.clock ~at:(f.busy_until +. prop) arrive;
        Delivered
      end
    end
  end

(** Ack/control hot path: schedule [fire] at now + delay with no
    bandwidth constraint and no random loss. Returns [false] (nothing
    scheduled) when the link is already down at send time, so a caller
    pooling its callbacks can recycle immediately. The callback must
    check {!is_up} at arrival itself — a link that went down while the
    control packet was in flight destroys it. *)
let control_send t fire =
  t.up
  && begin
       Eventq.post_in t.clock ~delay:t.params.delay fire;
       true
     end
