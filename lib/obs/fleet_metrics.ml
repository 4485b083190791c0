(** Fleet-level aggregate observability: a periodic sampler of the
    hosting gauges (live connections, arrivals, completions, scheduler
    decisions) plus a log-bucketed flow-completion-time histogram fed by
    the fleet's retirement hook. Per-connection collectors
    ({!Metrics.attach}) do not scale to 100k transient connections — one
    ring per connection, one tick per subflow — so the fleet layer is
    observed in aggregate: O(buckets + window) memory however many flows
    pass through. *)

type sample = {
  s_time : float;
  s_live : int;
  s_peak_live : int;
  s_arrivals : int;
  s_completed : int;
  s_heap_nodes : int;
      (** live event-queue nodes ({!Mptcp_sim.Eventq.live_nodes}) *)
  s_executions : int;  (** cumulative scheduler decisions *)
  s_decisions_per_sec : float;
      (** decisions over the last interval, per simulated second *)
  s_delivered_bytes : int;  (** cumulative *)
  (* GC gauges ({!Gc.quick_stat}): allocation drift is visible in the
     time series, not just the bench summary *)
  s_minor_words : float;  (** cumulative minor allocations, words *)
  s_major_words : float;  (** cumulative major allocations, words *)
  s_compactions : int;
  s_heap_words : int;  (** major heap size now *)
}

(* Quarter-octave log buckets: bucket [i] covers FCTs around
   [fct_base * 2^(i/4)] seconds, i.e. ~0.1 ms up to ~3 h over 96
   buckets. Coarse by design — the histogram answers "what does the
   tail look like", not "what was flow 4711's FCT". *)
let fct_buckets = 96
let fct_base = 1e-4

let bucket_of fct =
  if fct <= fct_base then 0
  else
    let i = int_of_float (Float.ceil (4.0 *. (Float.log (fct /. fct_base) /. Float.log 2.0))) in
    if i < 0 then 0 else if i >= fct_buckets then fct_buckets - 1 else i

(* geometric midpoint of bucket [i]'s range — what percentile queries
   report *)
let bucket_mid i = fct_base *. (2.0 ** ((float_of_int i -. 0.5) /. 4.0))

type t = {
  fleet : Mptcp_sim.Fleet.t;
  mutable samples : sample list;  (** newest first *)
  hist : int array;
  mutable fct_count : int;
  mutable fct_sum : float;
  mutable fct_max : float;
  mutable last_time : float;
  mutable last_executions : int;
}

let samples t = List.rev t.samples
let fct_count t = t.fct_count
let fct_max t = t.fct_max

let mean_fct t =
  if t.fct_count = 0 then 0.0 else t.fct_sum /. float_of_int t.fct_count

(** Approximate percentile ([0 <= q <= 1]) from the histogram: the
    geometric midpoint of the bucket holding the [q]-quantile flow. *)
let fct_percentile t q =
  if t.fct_count = 0 then 0.0
  else begin
    let target =
      let r = int_of_float (Float.ceil (q *. float_of_int t.fct_count)) in
      if r < 1 then 1 else if r > t.fct_count then t.fct_count else r
    in
    let i = ref 0 and seen = ref 0 in
    while !seen < target && !i < fct_buckets do
      seen := !seen + t.hist.(!i);
      if !seen < target then incr i
    done;
    bucket_mid !i
  end

let sample_now t =
  let f = t.fleet in
  let clock = Mptcp_sim.Fleet.clock f in
  let now = Mptcp_sim.Eventq.now clock in
  let tot = Mptcp_sim.Fleet.totals f in
  let dt = now -. t.last_time in
  let d_exec = tot.Mptcp_sim.Fleet.t_executions - t.last_executions in
  let gc = Gc.quick_stat () in
  let s =
    {
      s_time = now;
      s_live = tot.Mptcp_sim.Fleet.t_live;
      s_peak_live = tot.Mptcp_sim.Fleet.t_peak_live;
      s_arrivals = tot.Mptcp_sim.Fleet.t_arrivals;
      s_completed = tot.Mptcp_sim.Fleet.t_completed;
      s_heap_nodes = Mptcp_sim.Eventq.live_nodes clock;
      s_executions = tot.Mptcp_sim.Fleet.t_executions;
      s_decisions_per_sec =
        (if dt > 0.0 then float_of_int d_exec /. dt else 0.0);
      s_delivered_bytes = tot.Mptcp_sim.Fleet.t_delivered_bytes;
      s_minor_words = gc.Gc.minor_words;
      s_major_words = gc.Gc.major_words;
      s_compactions = gc.Gc.compactions;
      s_heap_words = gc.Gc.heap_words;
    }
  in
  t.last_time <- now;
  t.last_executions <- tot.Mptcp_sim.Fleet.t_executions;
  t.samples <- s :: t.samples;
  s

(** Attach an aggregate collector to [fleet]: one gauge sample every
    [interval] simulated seconds (pre-scheduled up to [until], so the
    queue still drains) and an FCT histogram fed by the fleet's
    retirement hook. Takes over [Fleet.set_on_retire] — install any
    other completion hook {e through} the returned collector's
    [on_retire] chain instead (see {!attach}'s [on_retire]). *)
let attach ?(interval = 1.0) ?(on_retire = fun ~fct:_ ~size:_ ~delivered:_ -> ())
    ~until fleet =
  let t =
    {
      fleet;
      samples = [];
      hist = Array.make fct_buckets 0;
      fct_count = 0;
      fct_sum = 0.0;
      fct_max = 0.0;
      last_time = Mptcp_sim.Eventq.now (Mptcp_sim.Fleet.clock fleet);
      last_executions = 0;
    }
  in
  Mptcp_sim.Fleet.set_on_retire fleet (fun ~fct ~size ~delivered ->
      t.hist.(bucket_of fct) <- t.hist.(bucket_of fct) + 1;
      t.fct_count <- t.fct_count + 1;
      t.fct_sum <- t.fct_sum +. fct;
      if fct > t.fct_max then t.fct_max <- fct;
      on_retire ~fct ~size ~delivered);
  let clock = Mptcp_sim.Fleet.clock fleet in
  let rec tick at =
    if at <= until then
      Mptcp_sim.Eventq.post clock ~at (fun () ->
          ignore (sample_now t);
          tick (at +. interval))
  in
  tick (Mptcp_sim.Eventq.now clock +. interval);
  t

let csv_header =
  "time_s,live,peak_live,arrivals,completed,heap_nodes,executions,\
   decisions_per_sec,delivered_bytes,minor_words,major_words,compactions,\
   heap_words"

let write_row oc s =
  Printf.fprintf oc "%.3f,%d,%d,%d,%d,%d,%d,%.1f,%d,%.0f,%.0f,%d,%d\n" s.s_time
    s.s_live s.s_peak_live s.s_arrivals s.s_completed s.s_heap_nodes
    s.s_executions s.s_decisions_per_sec s.s_delivered_bytes s.s_minor_words
    s.s_major_words s.s_compactions s.s_heap_words

let to_csv oc t =
  output_string oc (csv_header ^ "\n");
  List.iter (write_row oc) (samples t)

let pp_summary ppf t =
  let f = t.fleet in
  Fmt.pf ppf "arrivals           : %d (completed %d, live %d, peak %d)@."
    (Mptcp_sim.Fleet.arrivals f)
    (Mptcp_sim.Fleet.completed f)
    (Mptcp_sim.Fleet.live f)
    (Mptcp_sim.Fleet.peak_live f);
  Fmt.pf ppf "slots              : %d (recycled %d arrivals)@."
    (Mptcp_sim.Fleet.slot_count f)
    (Mptcp_sim.Fleet.arrivals f - Mptcp_sim.Fleet.slot_count f);
  if t.fct_count > 0 then
    Fmt.pf ppf
      "fct                : mean %.1f ms, p50 %.1f ms, p99 %.1f ms, max %.1f \
       ms@."
      (mean_fct t *. 1e3)
      (fct_percentile t 0.5 *. 1e3)
      (fct_percentile t 0.99 *. 1e3)
      (t.fct_max *. 1e3)
