(** Property tests for the event queue: pop order equals a stable sort
    by (time, scheduling order) at every wheel quantum, wheels at
    wildly different quanta are observationally identical on random
    scripts (the differential suite, whose oracle is a wheel so coarse
    that every event runs through the plain due heap), physical
    cancellation keeps node accounting exact, and re-armable timers
    take one sequence number per arm, like a post, while reusing one
    event cell. *)

open Mptcp_sim
open Helpers

type op =
  | Post of int  (** time bucket 0..9 *)
  | Schedule of int  (** a fresh timer armed once, at a time bucket *)
  | Cancel of int  (** index into the timers [Schedule] made so far *)
  | Arm of int * int  (** re-armed timer index 0..2, time bucket *)
  | Disarm of int

type tag = Ev of int | Tm of int

let gen_ops =
  let open QCheck2.Gen in
  small_list
    (oneof
       [
         map (fun b -> Post (abs b mod 10)) small_int;
         map (fun b -> Schedule (abs b mod 10)) small_int;
         map (fun i -> Cancel (abs i mod 15)) small_int;
         map2 (fun k b -> Arm (abs k mod 3, abs b mod 10)) small_int small_int;
         map (fun k -> Disarm (abs k mod 3)) small_int;
       ])

(* Execute ops against a real queue and a (seq, time, tag) model, then
   run to completion: the firing order must equal the model sorted by
   time with scheduling sequence as the tie-break. Timer arms consume a
   sequence number exactly like a post; cancels consume none. *)
let model_matches ~mk ops =
  let q : Eventq.t = mk () in
  let fired = ref [] in
  let timers =
    Array.init 3 (fun k -> Eventq.timer q (fun () -> fired := Tm k :: !fired))
  in
  let seq = ref 0 in
  let next_seq () =
    incr seq;
    !seq
  in
  let events = ref [] and n_ev = ref 0 in
  let fresh_id () =
    let id = !n_ev in
    incr n_ev;
    id
  in
  let model = ref [] in
  let drop tag = model := List.filter (fun (_, _, t) -> t <> tag) !model in
  List.iter
    (fun op ->
      match op with
      | Post b ->
          let id = fresh_id () in
          let t = float_of_int b /. 10.0 in
          Eventq.post q ~at:t (fun () -> fired := Ev id :: !fired);
          model := (next_seq (), t, Ev id) :: !model
      | Schedule b ->
          let id = fresh_id () in
          let t = float_of_int b /. 10.0 in
          let tm = Eventq.timer q (fun () -> fired := Ev id :: !fired) in
          Eventq.timer_arm tm ~at:t;
          events := !events @ [ (tm, id) ];
          model := (next_seq (), t, Ev id) :: !model
      | Cancel i -> (
          match List.nth_opt !events i with
          | Some (tm, id) ->
              Eventq.timer_cancel tm;
              drop (Ev id)
          | None -> ())
      | Arm (k, b) ->
          let t = float_of_int b /. 10.0 in
          Eventq.timer_arm timers.(k) ~at:t;
          drop (Tm k);
          model := (next_seq (), t, Tm k) :: !model
      | Disarm k ->
          Eventq.timer_cancel timers.(k);
          drop (Tm k))
    ops;
  Array.iteri
    (fun k timer ->
      let armed = List.exists (fun (_, _, t) -> t = Tm k) !model in
      assert (Eventq.timer_armed timer = armed))
    timers;
  ignore (Eventq.run q);
  let expected =
    List.sort
      (fun (s1, t1, _) (s2, t2, _) ->
        match compare (t1 : float) t2 with 0 -> compare s1 s2 | c -> c)
      !model
    |> List.map (fun (_, _, tag) -> tag)
  in
  List.rev !fired = expected
  && Array.for_all (fun t -> not (Eventq.timer_armed t)) timers

let qprop_model name mk =
  QCheck2.Test.make
    ~name:("pops in (time, scheduling order) [" ^ name ^ "]")
    ~count:500 gen_ops (model_matches ~mk)

(* ---------- quantum differential suite ---------- *)

(* A richer op language than the model test: chained events that post
   more events from inside their own action (the pattern every
   simulation uses, and the one that exercises wheel cascades), a timer
   re-armed both from script level and mid-run (from its own action),
   cancellations from the script and from inside other events' actions
   (landing on bucket-resident and due-heap timers), and [run ~until]
   segments that stop the clock between batches. Identical scripts must
   produce identical (tag, time) traces, per-segment executed counts
   and final clocks on wheels at wildly different quanta — the quantum
   may only affect bucket occupancy, never observable order. The oracle
   runs at a quantum of 1e12 s: every fire time then has tick 0, so
   after the first bucket drain every event goes straight into the due
   heap and the wheel is a plain indexed binary heap. *)
type dop =
  | DSched of float * int  (* delay bucket, tag *)
  | DSchedCancel of float * int  (* delay, cancel k ops later *)
  | DKill of float * float  (* victim delay, delay of its canceller *)
  | DArm of float
  | DDisarm
  | DChain of float * int * int  (* delay, chain length, tag base *)

let gen_dops =
  let open QCheck2.Gen in
  let fl = map (fun b -> float_of_int (abs b mod 1000) /. 97.0) small_int in
  pair
    (list_size (int_range 3 25)
       (oneof
          [
            map2 (fun d i -> DSched (d, abs i)) fl small_int;
            map2 (fun d k -> DSchedCancel (d, abs k mod 5)) fl small_int;
            map2 (fun d d' -> DKill (d, d')) fl fl;
            map (fun d -> DArm d) fl;
            return DDisarm;
            map3
              (fun d n tag -> DChain (d, abs n mod 4, 1000 * abs tag))
              fl small_int small_int;
          ]))
    (list_size (int_range 0 3) fl)
(* second component: run ~until horizons, applied before the final
   drain *)

let run_dscript ~quantum (script, segments) =
  let q = Eventq.create ~quantum () in
  let trace = ref [] in
  let record tag = trace := (tag, Eventq.now q) :: !trace in
  let tm = ref (Eventq.timer q ignore) and rearms = ref 0 in
  (tm :=
     Eventq.timer q (fun () ->
         record (-1);
         if !rearms < 2 then begin
           incr rearms;
           Eventq.timer_arm_in !tm ~delay:0.5
         end));
  let pending_cancels = ref [] in
  let step = ref 0 in
  let exec_op op =
    incr step;
    let due, rest =
      List.partition (fun (s, _) -> s <= !step) !pending_cancels
    in
    pending_cancels := rest;
    List.iter (fun (_, victim) -> Eventq.timer_cancel victim) due;
    match op with
    | DSched (d, tag) -> Eventq.post_in q ~delay:d (fun () -> record tag)
    | DSchedCancel (d, k) ->
        let victim = Eventq.timer q (fun () -> record 999) in
        Eventq.timer_arm_in victim ~delay:d;
        pending_cancels := (!step + k, victim) :: !pending_cancels
    | DKill (d, d') ->
        (* cancelled mid-run, from wherever the drain left it: its
           bucket, or the due heap when both share a bucket *)
        let victim = Eventq.timer q (fun () -> record 998) in
        Eventq.timer_arm_in victim ~delay:d;
        Eventq.post_in q ~delay:d' (fun () -> Eventq.timer_cancel victim)
    | DArm d -> Eventq.timer_arm_in !tm ~delay:d
    | DDisarm -> Eventq.timer_cancel !tm
    | DChain (d, n, tag) ->
        let rec go i =
          Eventq.post_in q ~delay:d (fun () ->
              record (tag + i);
              if i < n then go (i + 1))
        in
        go 0
  in
  List.iter exec_op script;
  let execs = List.map (fun u -> Eventq.run ~until:u q) segments in
  let final = Eventq.run q in
  (List.rev !trace, execs, final, Eventq.now q)

let differential_matches script =
  let oracle = run_dscript ~quantum:1e12 script in
  List.for_all
    (fun quantum -> run_dscript ~quantum script = oracle)
    [ 1e-6; 1e-4; 0.37; 53.0 ]

let qprop_differential =
  QCheck2.Test.make
    ~name:"wheels at any quantum replay the all-due wheel bit-identically"
    ~count:500 gen_dops differential_matches

(* ---------- physical cancellation ---------- *)

(* Cancellation removes the node from whichever structure holds it, so
   node accounting is exact at every step — no lazy dead entries, no
   compaction heuristic for tests to chase — and removal must be
   observationally transparent to the survivors' firing order. *)
let gen_cancel_ops =
  QCheck2.Gen.(list_size (int_range 100 400) (pair small_int bool))

let cancellation_model ~mk ops =
  let q : Eventq.t = mk () in
  let fired = ref [] in
  let model = ref [] in
  let handles = ref [] and n_handles = ref 0 in
  let n = ref 0 in
  let exact = ref true in
  List.iter
    (fun (b, cancel_mid) ->
      let id = !n in
      incr n;
      let t = float_of_int (abs b mod 10) /. 10.0 in
      let h = Eventq.timer q (fun () -> fired := id :: !fired) in
      Eventq.timer_arm h ~at:t;
      handles := (h, id) :: !handles;
      incr n_handles;
      model := (id, t) :: !model;
      (if cancel_mid then
         match List.nth_opt !handles (!n_handles / 2) with
         | Some (h, cid) ->
             Eventq.timer_cancel h;
             (* re-cancelling must be idempotent *)
             Eventq.timer_cancel h;
             model := List.filter (fun (i, _) -> i <> cid) !model
         | None -> ());
      if Eventq.live_nodes q <> List.length !model then exact := false)
    ops;
  ignore (Eventq.run q);
  let expected =
    List.sort
      (fun (i1, t1) (i2, t2) ->
        match compare (t1 : float) t2 with 0 -> compare i1 i2 | c -> c)
      !model
    |> List.map fst
  in
  !exact && List.rev !fired = expected

let qprop_cancellation name mk =
  QCheck2.Test.make
    ~name:("cancellation is physical and order-transparent [" ^ name ^ "]")
    ~count:100 gen_cancel_ops (cancellation_model ~mk)

let quanta =
  [
    ("wheel q=1e12 (all due)", fun () -> Eventq.create ~quantum:1e12 ());
    ("wheel", fun () -> Eventq.create ());
    ("wheel q=0.31", fun () -> Eventq.create ~quantum:0.31 ());
  ]

let suite =
  [
    ( "eventq",
      [
        tc "same-timestamp events fire FIFO (all quanta)" (fun () ->
            List.iter
              (fun (name, mk) ->
                let q : Eventq.t = mk () in
                let fired = ref [] in
                for i = 0 to 9 do
                  Eventq.post q ~at:1.0 (fun () -> fired := i :: !fired)
                done;
                ignore (Eventq.run q);
                Alcotest.(check (list int))
                  ("order " ^ name) (List.init 10 Fun.id) (List.rev !fired))
              quanta);
        tc "run ~until keeps later events" (fun () ->
            let q = Eventq.create () in
            let fired = ref [] in
            List.iter
              (fun t -> Eventq.post q ~at:t (fun () -> fired := t :: !fired))
              [ 0.5; 1.5; 2.5 ];
            ignore (Eventq.run ~until:1.0 q);
            Alcotest.(check (list (float 1e-9))) "early" [ 0.5 ] (List.rev !fired);
            ignore (Eventq.run q);
            Alcotest.(check (list (float 1e-9)))
              "rest" [ 0.5; 1.5; 2.5 ] (List.rev !fired));
        tc "timer re-arms itself from its own action" (fun () ->
            let q = Eventq.create () in
            let count = ref 0 in
            let timer = ref (Eventq.timer q ignore) in
            (timer :=
               Eventq.timer q (fun () ->
                   incr count;
                   if !count < 5 then Eventq.timer_arm_in !timer ~delay:0.1));
            Eventq.timer_arm !timer ~at:0.1;
            ignore (Eventq.run q);
            Alcotest.(check int) "fired 5 times" 5 !count;
            Alcotest.(check bool) "disarmed" false (Eventq.timer_armed !timer));
        tc "re-arm supersedes the pending arm" (fun () ->
            let q = Eventq.create () in
            let times = ref [] in
            let timer =
              Eventq.timer q (fun () -> times := Eventq.now q :: !times)
            in
            Eventq.timer_arm timer ~at:5.0;
            Eventq.timer_arm timer ~at:1.0;
            ignore (Eventq.run q);
            Alcotest.(check (list (float 1e-9)))
              "fires once, at the later arm's time" [ 1.0 ] (List.rev !times));
        tc "draining posted events allocates nothing per event" (fun () ->
            (* one instant (straight through the due heap) and 1 ms apart
               (cascading down the wheel levels) *)
            List.iter
              (fun spacing ->
                let q = Eventq.create () in
                let n = 10_000 in
                for i = 1 to n do
                  Eventq.post q ~at:(float_of_int i *. spacing) ignore
                done;
                let before = Gc.minor_words () in
                let executed = Eventq.run q in
                let words = Gc.minor_words () -. before in
                Alcotest.(check int) "all executed" n executed;
                Alcotest.(check bool)
                  (Fmt.str "spacing %g: %.0f minor words for %d events" spacing
                     words n)
                  true
                  (words <= float_of_int n /. 10.0))
              [ 0.0; 1e-3 ]);
        tc "posts and timer arms share one order (all quanta)" (fun () ->
            (* the same script twice, once all posted and once with every
               other event a timer arm: arms take sequence numbers like
               posts, so the firing order cannot change *)
            let script q ~timers =
              let fired = ref [] in
              for i = 0 to 59 do
                let at = float_of_int (i * 7 mod 5) *. 0.25 in
                let f () = fired := i :: !fired in
                if timers && i mod 2 = 0 then
                  Eventq.timer_arm (Eventq.timer q f) ~at
                else Eventq.post q ~at f
              done;
              ignore (Eventq.run q);
              List.rev !fired
            in
            List.iter
              (fun (name, mk) ->
                Alcotest.(check (list int))
                  ("order " ^ name)
                  (script (mk ()) ~timers:false)
                  (script (mk ()) ~timers:true))
              quanta);
        tc "a self-posting event reuses one cell (all quanta)" (fun () ->
            List.iter
              (fun (name, mk) ->
                let q : Eventq.t = mk () in
                let n = 10_000 and count = ref 0 and peak = ref 0 in
                let rec tick () =
                  incr count;
                  if !count < n then begin
                    Eventq.post_in q ~delay:1e-3 tick;
                    peak := max !peak (Eventq.live_nodes q)
                  end
                in
                Eventq.post q ~at:0.0 tick;
                ignore (Eventq.run ~until:1e-3 q);
                let before = Gc.minor_words () in
                ignore (Eventq.run q);
                let words = Gc.minor_words () -. before in
                Alcotest.(check int) ("all fired " ^ name) n !count;
                Alcotest.(check int) ("one node at a time " ^ name) 1 !peak;
                (* a post's own cost is the boxed fire time *)
                Alcotest.(check bool)
                  (Fmt.str "%s: %.0f minor words for %d posts" name words n)
                  true
                  (words <= 3.0 *. float_of_int n))
              quanta);
        QCheck_alcotest.to_alcotest
          (qprop_model "wheel q=1e12 (all due)" (fun () ->
               Eventq.create ~quantum:1e12 ()));
        QCheck_alcotest.to_alcotest
          (qprop_model "wheel" (fun () -> Eventq.create ()));
        QCheck_alcotest.to_alcotest
          (qprop_model "wheel q=0.31" (fun () ->
               Eventq.create ~quantum:0.31 ()));
        QCheck_alcotest.to_alcotest qprop_differential;
        tc "re-arming a timer reuses one cell (all quanta)" (fun () ->
            List.iter
              (fun (name, mk) ->
                let q : Eventq.t = mk () in
                let timer = Eventq.timer q ignore in
                for i = 1 to 10_000 do
                  Eventq.timer_arm timer ~at:(float_of_int i);
                  Alcotest.(check int)
                    ("one node " ^ name) 1 (Eventq.live_nodes q)
                done;
                Alcotest.(check bool)
                  ("still armed " ^ name) true (Eventq.timer_armed timer))
              quanta);
        tc "mass cancellation releases every node at once (all quanta)"
          (fun () ->
            List.iter
              (fun (name, mk) ->
                let q : Eventq.t = mk () in
                let timers =
                  List.init 1000 (fun i ->
                      let tm = Eventq.timer q ignore in
                      Eventq.timer_arm tm ~at:(float_of_int i);
                      tm)
                in
                List.iter Eventq.timer_cancel timers;
                Alcotest.(check int) ("no live " ^ name) 0 (Eventq.live_nodes q);
                let fired = ref 0 in
                Eventq.post q ~at:0.5 (fun () -> incr fired);
                Alcotest.(check int)
                  ("only the new event " ^ name) 1 (Eventq.live_nodes q);
                ignore (Eventq.run q);
                Alcotest.(check int) ("it fires " ^ name) 1 !fired;
                Alcotest.(check int) ("drained " ^ name) 0 (Eventq.live_nodes q))
              quanta);
        tc "run ~until put-back keeps node accounting exact (all quanta)"
          (fun () ->
            List.iter
              (fun (name, mk) ->
                let q : Eventq.t = mk () in
                let a = Eventq.timer q ignore in
                Eventq.timer_arm a ~at:2.0;
                Eventq.post q ~at:2.0 ignore;
                Eventq.timer_cancel a;
                ignore (Eventq.run ~until:1.0 q);
                Alcotest.(check int)
                  ("survivor kept " ^ name) 1 (Eventq.live_nodes q);
                Alcotest.(check (float 1e-9))
                  ("clock at horizon " ^ name) 1.0 (Eventq.now q);
                ignore (Eventq.run q);
                Alcotest.(check int) ("drained " ^ name) 0 (Eventq.live_nodes q))
              quanta);
        QCheck_alcotest.to_alcotest
          (qprop_cancellation "wheel q=1e12 (all due)" (fun () ->
               Eventq.create ~quantum:1e12 ()));
        QCheck_alcotest.to_alcotest
          (qprop_cancellation "wheel" (fun () -> Eventq.create ()));
        tc "observers are read-only (enforced)" (fun () ->
            let attempts =
              [
                ("post", fun q _t -> Eventq.post q ~at:9.0 ignore);
                ("post_in", fun q _t -> Eventq.post_in q ~delay:1.0 ignore);
                ("timer_arm", fun _q t -> Eventq.timer_arm t ~at:9.0);
                ("timer_cancel", fun _q t -> Eventq.timer_cancel t);
              ]
            in
            List.iter
              (fun (name, mk) ->
                List.iter
                  (fun (what, attempt) ->
                    let q : Eventq.t = mk () in
                    Eventq.post q ~at:5.0 ignore;
                    let timer = Eventq.timer q ignore in
                    Eventq.timer_arm timer ~at:6.0;
                    let raised = ref false in
                    Eventq.add_observer q (fun () ->
                        match attempt q timer with
                        | () -> ()
                        | exception Invalid_argument _ -> raised := true);
                    Eventq.post q ~at:1.0 ignore;
                    ignore (Eventq.run q);
                    Alcotest.(check bool)
                      (Fmt.str "%s raises from observer (%s)" what name)
                      true !raised;
                    (* the guard resets: the queue stays usable *)
                    let fired = ref 0 in
                    Eventq.post q ~at:9.0 (fun () -> incr fired);
                    ignore (Eventq.run q);
                    Alcotest.(check int)
                      (Fmt.str "usable after %s attempt (%s)" what name)
                      1 !fired)
                  attempts)
              quanta);
        tc "one fleet rung is identical at the derived and all-due quanta"
          (fun () ->
            Progmp_compiler.Compile.register_engines ();
            ignore (Schedulers.Specs.load_all ());
            let sched =
              match Progmp_runtime.Scheduler.find "default" with
              | Some s -> s
              | None -> assert false
            in
            let seed = 11 and duration = 6.0 in
            let rung ?clock () =
              let fleet =
                Fleet.create ?clock ~seed ~cc:Congestion.Lia
                  ~scheduler:(sched, "interpreter") ~groups:4
                  ~paths:(Mptcp_exp.Scenarios.fleet_group_paths ~loss:0.01)
                  ()
              in
              Mptcp_exp.Scenarios.drive_arrivals fleet ~seed
                ~rate:(fun _ -> 400.0)
                ~until:duration Mptcp_exp.Traffic.default_pareto;
              ignore (Fleet.run ~until:duration fleet);
              fleet
            in
            let d = rung () in
            let c = rung ~clock:(Eventq.create ~quantum:1e12 ()) () in
            Alcotest.(check bool)
              (Fmt.str "derived quantum is fine-grained (%g s)"
                 (Eventq.quantum (Fleet.clock d)))
              true
              (Eventq.quantum (Fleet.clock d) <= 1e-2);
            let td = Fleet.totals d and tc = Fleet.totals c in
            Alcotest.(check bool)
              (Fmt.str "rung hosts real churn (%d arrivals)" td.Fleet.t_arrivals)
              true (td.Fleet.t_arrivals > 1000);
            Alcotest.(check int) "arrivals" td.Fleet.t_arrivals
              tc.Fleet.t_arrivals;
            Alcotest.(check int) "completed" td.Fleet.t_completed
              tc.Fleet.t_completed;
            Alcotest.(check int) "live" td.Fleet.t_live tc.Fleet.t_live;
            Alcotest.(check int) "peak live" td.Fleet.t_peak_live
              tc.Fleet.t_peak_live;
            Alcotest.(check int) "delivered bytes" td.Fleet.t_delivered_bytes
              tc.Fleet.t_delivered_bytes;
            Alcotest.(check int) "wire bytes" td.Fleet.t_wire_bytes
              tc.Fleet.t_wire_bytes;
            Alcotest.(check int) "executions" td.Fleet.t_executions
              tc.Fleet.t_executions;
            Alcotest.(check int) "pushes" td.Fleet.t_pushes tc.Fleet.t_pushes;
            Alcotest.(check (float 0.0))
              "fct sum" td.Fleet.t_fct_sum tc.Fleet.t_fct_sum;
            Alcotest.(check int) "slots" (Fleet.slot_count d)
              (Fleet.slot_count c);
            Alcotest.(check (float 0.0))
              "final clock"
              (Eventq.now (Fleet.clock d))
              (Eventq.now (Fleet.clock c)));
        tc "create rejects a quantum that is not positive and finite"
          (fun () ->
            List.iter
              (fun quantum ->
                match Eventq.create ~quantum () with
                | _ -> Alcotest.failf "quantum %g accepted" quantum
                | exception Invalid_argument _ -> ())
              [ 0.0; -1.0; Float.nan; Float.infinity ]);
        tc "derive_quantum falls back to the default and clamps" (fun () ->
            let default = Eventq.quantum (Eventq.create ()) in
            List.iter
              (fun min_delay ->
                Alcotest.(check (float 0.0))
                  (Fmt.str "default for min_delay %g" min_delay)
                  default
                  (Eventq.derive_quantum ~min_delay))
              [ Float.nan; 0.0; Float.infinity ];
            Alcotest.(check (float 0.0))
              "clamped below" 1e-7
              (Eventq.derive_quantum ~min_delay:1e-12);
            Alcotest.(check (float 0.0))
              "clamped above" 1e-2
              (Eventq.derive_quantum ~min_delay:1e6));
      ] );
  ]
