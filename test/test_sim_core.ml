(** Simulation-core tests: deterministic RNG, event queue ordering, and
    the link model (serialization, loss, drop-tail, fluctuation). *)

open Mptcp_sim
open Helpers

let rng_uniform =
  QCheck2.Test.make ~name:"rng floats stay in [0,1)" ~count:200
    QCheck2.Gen.small_int (fun seed ->
      let rng = Rng.create seed in
      List.for_all
        (fun _ ->
          let f = Rng.float rng in
          f >= 0.0 && f < 1.0)
        (List.init 100 Fun.id))

let suite =
  [
    ( "sim-core",
      [
        tc "rng is deterministic per seed" (fun () ->
            let a = Rng.create 7 and b = Rng.create 7 in
            for _ = 1 to 50 do
              Alcotest.(check (float 0.0)) "same" (Rng.float a) (Rng.float b)
            done);
        tc "rng differs across seeds" (fun () ->
            let a = Rng.create 7 and b = Rng.create 8 in
            Alcotest.(check bool) "different" true (Rng.float a <> Rng.float b));
        tc "rng int respects bound" (fun () ->
            let rng = Rng.create 3 in
            for _ = 1 to 200 do
              let v = Rng.int rng 10 in
              Alcotest.(check bool) "in range" true (v >= 0 && v < 10)
            done);
        tc "rng split is independent" (fun () ->
            let a = Rng.create 7 in
            let c = Rng.split a in
            Alcotest.(check bool) "independent stream" true
              (Rng.float a <> Rng.float c));
        tc "exponential mean roughly matches" (fun () ->
            let rng = Rng.create 11 in
            let n = 5000 in
            let sum = ref 0.0 in
            for _ = 1 to n do
              sum := !sum +. Rng.exponential rng ~mean:2.0
            done;
            let mean = !sum /. float_of_int n in
            Alcotest.(check bool) "2.0 +- 0.2" true (abs_float (mean -. 2.0) < 0.2));
        QCheck_alcotest.to_alcotest rng_uniform;
        tc "events run in time order" (fun () ->
            let q = Eventq.create () in
            let log = ref [] in
            Eventq.post q ~at:3.0 (fun () -> log := 3 :: !log);
            Eventq.post q ~at:1.0 (fun () -> log := 1 :: !log);
            Eventq.post q ~at:2.0 (fun () -> log := 2 :: !log);
            ignore (Eventq.run q);
            Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (List.rev !log));
        tc "same-time events fire in scheduling order" (fun () ->
            let q = Eventq.create () in
            let log = ref [] in
            for i = 0 to 9 do
              Eventq.post q ~at:1.0 (fun () -> log := i :: !log)
            done;
            ignore (Eventq.run q);
            Alcotest.(check (list int)) "fifo ties" (List.init 10 Fun.id)
              (List.rev !log));
        tc "cancelled events do not fire" (fun () ->
            let q = Eventq.create () in
            let fired = ref false in
            let tm = Eventq.timer q (fun () -> fired := true) in
            Eventq.timer_arm tm ~at:1.0;
            Eventq.timer_cancel tm;
            ignore (Eventq.run q);
            Alcotest.(check bool) "not fired" false !fired);
        tc "run ~until stops the clock and keeps later events" (fun () ->
            let q = Eventq.create () in
            let fired = ref 0 in
            Eventq.post q ~at:1.0 (fun () -> incr fired);
            Eventq.post q ~at:5.0 (fun () -> incr fired);
            ignore (Eventq.run ~until:2.0 q);
            Alcotest.(check int) "one fired" 1 !fired;
            Alcotest.(check (float 1e-9)) "clock at horizon" 2.0 (Eventq.now q);
            ignore (Eventq.run q);
            Alcotest.(check int) "second fires later" 2 !fired);
        tc "events scheduled inside events run" (fun () ->
            let q = Eventq.create () in
            let log = ref [] in
            Eventq.post q ~at:1.0 (fun () ->
                log := 1 :: !log;
                Eventq.post_in q ~delay:1.0 (fun () -> log := 2 :: !log));
            ignore (Eventq.run q);
            Alcotest.(check (list int)) "chain" [ 1; 2 ] (List.rev !log);
            Alcotest.(check (float 1e-9)) "time" 2.0 (Eventq.now q));
        tc "many events keep heap consistent" (fun () ->
            let q = Eventq.create () in
            let rng = Rng.create 5 in
            let last = ref 0.0 in
            let count = ref 0 in
            for _ = 1 to 2000 do
              let at = Rng.float rng *. 100.0 in
              Eventq.post q ~at (fun () ->
                  Alcotest.(check bool) "monotone" true (Eventq.now q >= !last);
                  last := Eventq.now q;
                  incr count)
            done;
            ignore (Eventq.run q);
            Alcotest.(check int) "all ran" 2000 !count);
        tc "link serialization delays back-to-back packets" (fun () ->
            let clock = Eventq.create () in
            let rng = Rng.create 1 in
            let link =
              Link.create
                ~params:{ Link.default_params with Link.bandwidth = 1000.0; delay = 0.1 }
                ~clock ~rng ()
            in
            let arrivals = ref [] in
            for _ = 1 to 3 do
              ignore
                (Link.transmit link ~size:100 (fun () ->
                     if Link.arrival link then
                       arrivals := Eventq.now clock :: !arrivals))
            done;
            ignore (Eventq.run clock);
            (* 100 B at 1000 B/s = 0.1 s serialization each, + 0.1 s delay *)
            Alcotest.(check (list (float 1e-9)))
              "arrival times" [ 0.2; 0.3; 0.4 ] (List.rev !arrivals));
        tc "lossy link drops about the loss rate" (fun () ->
            let clock = Eventq.create () in
            let rng = Rng.create 2 in
            let link =
              Link.create
                ~params:{ Link.default_params with Link.loss = 0.3; bandwidth = 1e9 }
                ~clock ~rng ()
            in
            let delivered = ref 0 in
            for _ = 1 to 2000 do
              match
                Link.transmit link ~size:100 (fun () ->
                    ignore (Link.arrival link))
              with
              | Link.Delivered -> incr delivered
              | Link.Lost_random | Link.Dropped_tail | Link.Dropped_red
              | Link.Lost_down ->
                  ()
            done;
            let rate = float_of_int !delivered /. 2000.0 in
            Alcotest.(check bool) "~70% delivered" true
              (rate > 0.65 && rate < 0.75));
        tc "drop-tail buffer overflows" (fun () ->
            let clock = Eventq.create () in
            let rng = Rng.create 3 in
            let link =
              Link.create
                ~params:
                  {
                    Link.default_params with
                    Link.bandwidth = 1000.0;
                    buffer_bytes = 250;
                  }
                ~clock ~rng ()
            in
            let outcomes =
              List.init 5 (fun _ ->
                  Link.transmit link ~size:100 (fun () ->
                      ignore (Link.arrival link)))
            in
            let dropped =
              List.length (List.filter (( = ) Link.Dropped_tail) outcomes)
            in
            Alcotest.(check bool) "some tail drops" true (dropped >= 2));
        tc "bandwidth change takes effect" (fun () ->
            let clock = Eventq.create () in
            let rng = Rng.create 4 in
            let link =
              Link.create
                ~params:{ Link.default_params with Link.bandwidth = 1000.0; delay = 0.0 }
                ~clock ~rng ()
            in
            Link.set_bandwidth link 2000.0;
            let t = ref 0.0 in
            ignore
              (Link.transmit link ~size:200 (fun () ->
                   if Link.arrival link then t := Eventq.now clock));
            ignore (Eventq.run clock);
            Alcotest.(check (float 1e-9)) "0.1s at 2000B/s" 0.1 !t);
      ] );
  ]
