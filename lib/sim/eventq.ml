(** Discrete-event simulation core: a clock and a time-ordered event
    queue. Events scheduled for the same instant fire in scheduling
    order (a monotone sequence number breaks ties), which keeps runs
    deterministic.

    The queue is a hierarchical timing wheel (Varghese–Lauck). Fire
    times are quantized to an integer tick ([time / quantum]) and events
    hang off power-of-two bucket arrays — 13 levels of 32 slots, level
    [l] spanning [32^l] ticks per slot — so [post], [timer_arm] and
    [timer_cancel] are O(1): no sift, no pointer-chasing across a
    multi-million-node array. Dispatch is batched: the next due bucket
    is drained whole into a small "due" heap and executed from there.
    The quantum only decides which events share a bucket; within a
    bucket events are ordered by their exact [(time, seq)] key, so the
    execution order — and therefore the run — is bit-identical for
    {e any} quantum. At a quantum coarser than every fire time all
    ticks are 0: after the first drain every event goes straight to the
    due heap, and the wheel degenerates into a plain indexed binary
    heap — the oracle the differential property suite replays finer
    quanta against.

    An event cell is either a pooled one-shot ({!post}) or a {!timer}'s
    own cell. Only timers are cancelled, and cancellation is
    {e physical}: every cell tracks its slot in whatever structure holds
    it, so {!timer_cancel} swap-removes it — O(1) from a bucket,
    O(log n) from the due heap. No structure ever holds a cancelled
    event, so there is no lazy dead count, no compaction heuristic, and
    the final clock of a run can never depend on internal bookkeeping;
    it also means a timer's cell is always free for reuse when re-armed,
    making the RTO pattern (re-arm on every ack) allocation-free. *)

type event = {
  mutable time : float;
  mutable seq : int;
  pooled : bool;
      (** a {!post} cell, back on its queue's free stack once it fires;
          [false] for a timer's cell *)
  mutable action : unit -> unit;
  mutable home : bucket;
      (** the wheel bucket physically holding this event, or
          [dummy_bucket] *)
  mutable hh : heap;
      (** the due heap physically holding this event, or [dummy_heap] *)
  mutable pos : int;
      (** index in [home.b_evs] or [hh.h_arr]; -1 when the event is in
          no structure (not yet inserted, fired, or cancelled) *)
}

and bucket = {
  b_owner : wheel option;  (** [None] only for [dummy_bucket] *)
  mutable b_evs : event array;
  mutable b_len : int;
}

and wheel = {
  w_inv_quantum : float;
  w_levels : bucket array array;  (** 13 levels x 32 slots, lazy buckets *)
  mutable w_cur : int;
      (** current tick: every bucket-resident event has tick >= w_cur,
          everything at tick < w_cur has been pulled into [w_due] *)
  w_due : heap;  (** drained buckets + post-at-now spills, exact order *)
  mutable w_count : int;  (** events resident in buckets (due excluded) *)
}

and heap = { mutable h_arr : event array; mutable h_size : int }

(* Padding for unused slots: never popped, never cancelled. Freed slots
   are reset to this so removal actually releases the event (and its
   action closure) to the GC. *)
let rec dummy_event =
  {
    time = 0.;
    seq = 0;
    pooled = false;
    action = ignore;
    home = dummy_bucket;
    hh = dummy_heap;
    pos = -1;
  }

and dummy_bucket = { b_owner = None; b_evs = [||]; b_len = 0 }
and dummy_heap = { h_arr = [||]; h_size = 0 }

let before (a : event) (b : event) =
  a.time < b.time || (a.time = b.time && a.seq < b.seq)

(* ---------- indexed binary heap primitives ----------
   The wheel's due set. Every move maintains the resident events' [pos]
   so {!timer_cancel} can delete from the middle. *)

let heap_make () = { h_arr = Array.make 256 dummy_event; h_size = 0 }

let hswap h i j =
  let a = h.h_arr.(i) and b = h.h_arr.(j) in
  h.h_arr.(i) <- b;
  b.pos <- i;
  h.h_arr.(j) <- a;
  a.pos <- j

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before h.h_arr.(i) h.h_arr.(parent) then begin
      hswap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < h.h_size && before h.h_arr.(l) h.h_arr.(!smallest) then smallest := l;
  if r < h.h_size && before h.h_arr.(r) h.h_arr.(!smallest) then smallest := r;
  if !smallest <> i then begin
    hswap h i !smallest;
    sift_down h !smallest
  end

let hpush h ev =
  if h.h_size = Array.length h.h_arr then begin
    let arr' = Array.make (2 * h.h_size) dummy_event in
    Array.blit h.h_arr 0 arr' 0 h.h_size;
    h.h_arr <- arr'
  end;
  h.h_arr.(h.h_size) <- ev;
  ev.hh <- h;
  ev.pos <- h.h_size;
  h.h_size <- h.h_size + 1;
  sift_up h (h.h_size - 1)

(* Precondition: h_size > 0. *)
let hpop h =
  let ev = h.h_arr.(0) in
  h.h_size <- h.h_size - 1;
  let last = h.h_arr.(h.h_size) in
  h.h_arr.(0) <- last;
  last.pos <- 0;
  h.h_arr.(h.h_size) <- dummy_event;
  sift_down h 0;
  ev.hh <- dummy_heap;
  ev.pos <- -1;
  ev

(* Physical delete from the middle: move the last element into the hole
   and restore the heap property in whichever direction it violates it.
   The pop sequence of the remaining events is their (time, seq)-sorted
   order either way, so removal never perturbs execution order. *)
let heap_remove h (ev : event) =
  let i = ev.pos in
  h.h_size <- h.h_size - 1;
  let last = h.h_arr.(h.h_size) in
  h.h_arr.(h.h_size) <- dummy_event;
  if i < h.h_size then begin
    h.h_arr.(i) <- last;
    last.pos <- i;
    sift_down h i;
    sift_up h last.pos
  end;
  ev.hh <- dummy_heap;
  ev.pos <- -1

(* ---------- timing wheel primitives ---------- *)

let wheel_bits = 5
let wheel_slots = 32 (* 1 lsl wheel_bits *)
let wheel_mask = wheel_slots - 1

(* 13 levels of 5 bits cover bits 0..64 of the tick, i.e. every
   non-negative OCaml int: no separate overflow list is needed. Ticks
   are saturated below 2^61 so tick arithmetic (start-of-bucket, +1 on
   drain) can never overflow. *)
let wheel_levels = 13
let max_tick = 1 lsl 61

let tick_of w time =
  let x = time *. w.w_inv_quantum in
  if x >= 2.3e18 (* also catches +inf *) then max_tick
  else if x > 0.0 then int_of_float x
  else 0

(* Smallest level [>= l] whose higher-order tick groups agree with the
   current position: the event can be reached from [cur] without leaving
   that level's window. A top-level loop, not a local closure, so a
   placement allocates nothing. *)
let rec level_from cur tick l =
  if l >= wheel_levels - 1 then wheel_levels - 1
  else if tick lsr (wheel_bits * (l + 1)) = cur lsr (wheel_bits * (l + 1))
  then l
  else level_from cur tick (l + 1)

let bucket_of w tick =
  let l = level_from w.w_cur tick 0 in
  let idx = (tick lsr (wheel_bits * l)) land wheel_mask in
  let row = w.w_levels.(l) in
  let b = row.(idx) in
  if b != dummy_bucket then b
  else begin
    let b = { b_owner = Some w; b_evs = Array.make 4 dummy_event; b_len = 0 } in
    row.(idx) <- b;
    b
  end

let bucket_push (b : bucket) ev =
  let n = b.b_len in
  if n = Array.length b.b_evs then begin
    let a = Array.make (max 8 (2 * n)) dummy_event in
    Array.blit b.b_evs 0 a 0 n;
    b.b_evs <- a
  end;
  b.b_evs.(n) <- ev;
  ev.home <- b;
  ev.pos <- n;
  b.b_len <- n + 1

(* Physical O(1) removal of a bucket-resident event (swap with the last
   slot). This is what makes {!timer_cancel} O(1) on the wheel: no dead
   node is ever left behind, so mass cancellation releases memory at
   once. *)
let bucket_remove (ev : event) =
  let b = ev.home in
  let last = b.b_len - 1 in
  let moved = b.b_evs.(last) in
  b.b_evs.(ev.pos) <- moved;
  moved.pos <- ev.pos;
  b.b_evs.(last) <- dummy_event;
  b.b_len <- last;
  ev.home <- dummy_bucket;
  ev.pos <- -1;
  match b.b_owner with
  | Some w -> w.w_count <- w.w_count - 1
  | None -> assert false

(* Raw placement: due heap when the event's tick has already been
   reached (post-at-now, run-limit put-backs), its bucket
   otherwise. *)
let wheel_place w ev =
  let tick = tick_of w ev.time in
  if tick < w.w_cur then hpush w.w_due ev
  else begin
    bucket_push (bucket_of w tick) ev;
    w.w_count <- w.w_count + 1
  end

let wheel_nodes w = w.w_count + w.w_due.h_size

(* Respread a higher-level bucket's events now that the clock has
   entered its window; each lands at a strictly lower level
   (redistributed ticks are always >= w_cur, so the due heap is
   untouched). *)
let redistribute w b =
  let n = b.b_len in
  for i = 0 to n - 1 do
    let ev = b.b_evs.(i) in
    b.b_evs.(i) <- dummy_event;
    w.w_count <- w.w_count - 1;
    ev.home <- dummy_bucket;
    ev.pos <- -1;
    wheel_place w ev
  done;
  b.b_len <- 0

(* Advance the wheel to the next pending tick: find the earliest
   non-empty bucket (lowest level first, scanning each level from the
   clock's own slot), cascade higher-level buckets down, and drain the
   level-0 bucket whole into the due heap — the batched-execution step:
   one bucket pull feeds many pops. Postcondition: the due heap is
   non-empty (precondition: w_count > 0). *)
let advance w =
  while w.w_due.h_size = 0 && w.w_count > 0 do
    (* A drain's [w_cur + 1] can carry across a higher-level window
       boundary without visiting that level, leaving events parked in a
       bucket at the clock's own slot — ticks interleaved with the new
       level-0 window. Cascade those first (top-down, so each respread
       lands below), restoring the invariant that every bucket at
       level >= 1 is strictly later than the whole window under it;
       only then is the bottom-up scan's "lowest level first" order
       correct. *)
    for l = wheel_levels - 1 downto 1 do
      let idx = (w.w_cur lsr (wheel_bits * l)) land wheel_mask in
      let b = w.w_levels.(l).(idx) in
      if b != dummy_bucket && b.b_len > 0 then redistribute w b
    done;
    let found = ref false in
    let l = ref 0 in
    while (not !found) && !l < wheel_levels do
      let row = w.w_levels.(!l) in
      let from = (w.w_cur lsr (wheel_bits * !l)) land wheel_mask in
      let j = ref from in
      while (not !found) && !j < wheel_slots do
        let b = row.(!j) in
        if b != dummy_bucket && b.b_len > 0 then begin
          found := true;
          if !l = 0 then begin
            (* level-0 buckets hold exactly one tick: drain it whole *)
            w.w_cur <- ((w.w_cur lsr wheel_bits) lsl wheel_bits) lor !j;
            let n = b.b_len in
            for i = 0 to n - 1 do
              let ev = b.b_evs.(i) in
              b.b_evs.(i) <- dummy_event;
              ev.home <- dummy_bucket;
              ev.pos <- -1;
              w.w_count <- w.w_count - 1;
              hpush w.w_due ev
            done;
            b.b_len <- 0;
            w.w_cur <- w.w_cur + 1
          end
          else begin
            (* cascade: jump to the bucket's window and respread it
               (never moving the clock backward) *)
            let s = wheel_bits * !l in
            let s1 = wheel_bits * (!l + 1) in
            let start =
              if s1 > 61 then !j lsl s
              else ((w.w_cur lsr s1) lsl s1) lor (!j lsl s)
            in
            if start > w.w_cur then w.w_cur <- start;
            redistribute w b
          end
        end
        else incr j
      done;
      incr l
    done;
    if not !found then
      (* unreachable by construction: w_count > 0 means some bucket at
         some level is reachable from w_cur *)
      invalid_arg "Eventq: timing wheel lost track of pending events"
  done

(* The next event in (time, seq) order, or [dummy_event] when the wheel
   is empty: a sentinel instead of an option keeps the dispatch loop
   allocation-free. *)
let wheel_pop w =
  if w.w_due.h_size > 0 then hpop w.w_due
  else if w.w_count = 0 then dummy_event
  else begin
    advance w;
    hpop w.w_due
  end

let wheel_make ~quantum =
  {
    w_inv_quantum = 1.0 /. quantum;
    w_levels =
      Array.init wheel_levels (fun _ -> Array.make wheel_slots dummy_bucket);
    w_cur = 0;
    w_due = heap_make ();
    w_count = 0;
  }

let default_quantum = 1e-4

(* A tick a comfortable factor below the minimum propagation delay keeps
   same-burst events (serialization, ack clocking) in one bucket while
   cross-path events still land in distinct buckets; the quantum never
   affects simulated timestamps, only bucket occupancy. *)
let derive_quantum ~min_delay =
  if Float.is_finite min_delay && min_delay > 0.0 then
    Float.max 1e-7 (Float.min 1e-2 (min_delay /. 64.0))
  else default_quantum

type t = {
  mutable now : float;
  mutable next_seq : int;
  mutable in_observer : bool;
      (** set while observers run; posting and timer operations raise *)
  mutable observers : (unit -> unit) list;
      (** run after every executed event, in registration order *)
  wheel : wheel;
  quantum : float;
  free : event Progmp_runtime.Array_stack.t;
      (** fired {!post} cells, padded with [dummy_event] *)
}

let create ?(quantum = default_quantum) () =
  if not (Float.is_finite quantum && quantum > 0.0) then
    invalid_arg "Eventq.create: quantum must be positive and finite";
  {
    now = 0.0;
    next_seq = 0;
    in_observer = false;
    observers = [];
    wheel = wheel_make ~quantum;
    quantum;
    free = Progmp_runtime.Array_stack.create ~pad:dummy_event;
  }

let now t = t.now
let quantum t = t.quantum

(** Register [f] to run after every executed event — the hook invariant
    checkers attach to. Observers run in registration order and are
    read-only: posting, arming or cancelling from inside one raises
    [Invalid_argument] (enforced, not just documented). *)
let add_observer t f = t.observers <- t.observers @ [ f ]

let obs_guard t op =
  if t.in_observer then
    invalid_arg
      ("Eventq." ^ op
     ^ ": called from inside an Eventq observer (observers are read-only \
        and must not schedule or cancel events)")

(* Stamp [ev] with its fire time and the next sequence number, and place
   it: the one way an event enters the wheel. *)
let[@inline] enqueue t ev ~at =
  ev.time <- (if at < t.now then t.now else at);
  ev.seq <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  wheel_place t.wheel ev

let[@inline] cell ~pooled action =
  {
    time = 0.;
    seq = 0;
    pooled;
    action;
    home = dummy_bucket;
    hh = dummy_heap;
    pos = -1;
  }

(** A one-shot event at absolute time [at] (clamped to now). The cell
    comes from the queue's free stack and goes back to it when the event
    fires, so a steady stream of posts allocates no event records. *)
let post t ~at action =
  obs_guard t "post";
  let ev = Progmp_runtime.Array_stack.pop t.free in
  let ev =
    if ev != dummy_event then begin
      ev.action <- action;
      ev
    end
    else cell ~pooled:true action
  in
  enqueue t ev ~at

let post_in t ~delay action = post t ~at:(t.now +. delay) action

(* A fired post cell drops its action (so the closure can be collected)
   and waits on the free stack for the next {!post}. *)
let recycle t ev =
  ev.action <- ignore;
  Progmp_runtime.Array_stack.push t.free ev

(* ---------- re-armable timers ---------- *)

(** A timer is a re-armable event of one queue whose action closure and
    event cell are built exactly once, at creation: cancellation is
    physical, so by the time {!timer_arm} runs, the previous arm's cell
    is always out of the wheel and the new deadline is written into it
    in place — no closure, no node, no allocation. One sequence number
    is consumed per arm, exactly like a {!post}. The timer is armed
    exactly while its cell sits in the wheel. *)
type timer = { q : t; tcell : event }

let timer q action = { q; tcell = cell ~pooled:false action }
let timer_armed tm = tm.tcell.pos >= 0

let timer_cancel tm =
  obs_guard tm.q "timer_cancel";
  let ev = tm.tcell in
  if ev.home != dummy_bucket then bucket_remove ev
  else if ev.hh != dummy_heap then heap_remove ev.hh ev

let timer_arm tm ~at =
  obs_guard tm.q "timer_arm";
  timer_cancel tm;
  enqueue tm.q tm.tcell ~at

let timer_arm_in tm ~delay = timer_arm tm ~at:(tm.q.now +. delay)

(** Nodes holding pending events. Cancellation is physical, so this is
    also every node the wheel holds. *)
let live_nodes t = wheel_nodes t.wheel

(** Run events until the queue drains or the clock passes [until]
    (default: drain). Returns the number of events executed. *)
let run ?until t =
  let executed = ref 0 in
  let limit = match until with Some u -> u | None -> infinity in
  let rec loop () =
    let ev = wheel_pop t.wheel in
    if ev == dummy_event then ()
    else if ev.time > limit then begin
      (* put it back: future runs may extend the horizon *)
      wheel_place t.wheel ev;
      t.now <- limit
    end
    else begin
      t.now <- ev.time;
      let action = ev.action in
      if ev.pooled then recycle t ev;
      action ();
      incr executed;
      (match t.observers with
      | [] -> ()
      | obs -> (
          t.in_observer <- true;
          (try List.iter (fun f -> f ()) obs
           with e ->
             t.in_observer <- false;
             raise e);
          t.in_observer <- false));
      loop ()
    end
  in
  loop ();
  !executed
