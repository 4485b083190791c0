(** Receiver-side packet handling, packetdrill style (§4.2): crafted
    arrival traces with loss and cross-subflow reordering, asserting that
    the improved receiver delivers in-order data at the earliest possible
    moment while the stock two-layer receiver holds it back. *)

open Mptcp_sim
open Progmp_runtime
open Helpers

(* A meta socket with two subflows whose arrivals we inject by hand. *)
type rig = {
  clock : Eventq.t;
  meta : Meta_socket.t;
  sbf1 : Tcp_subflow.t;
  sbf2 : Tcp_subflow.t;
  delivered : (int * float) list ref;  (** (data seq, time) in order *)
}

let make_rig ~mode () =
  let clock = Eventq.create () in
  let rng = Rng.create 7 in
  let meta = Meta_socket.create ~clock () in
  let mk id =
    let params = { Link.default_params with Link.delay = 0.01 } in
    let data_link = Link.create ~params ~clock ~rng () in
    let ack_link = Link.create ~params ~clock ~rng () in
    let s =
      Tcp_subflow.create ~id ~clock ~data_link ~ack_link ~delivery_mode:mode ()
    in
    Meta_socket.attach meta s;
    s
  in
  let sbf1 = mk 0 and sbf2 = mk 1 in
  let delivered = ref [] in
  meta.Meta_socket.on_deliver <-
    (fun ~seq ~size:_ ~time -> delivered := (seq, time) :: !delivered);
  { clock; meta; sbf1; sbf2; delivered }

let pkt seq = Packet.create ~seq ~size:1448 ~now:0.0 ()

(* Inject arrival of [data_seq] on [sbf] carried as subflow seq [ss] at
   absolute time [at]. *)
let arrive rig sbf ~at ~ss ~data_seq =
  Eventq.post rig.clock ~at (fun () ->
      Tcp_subflow.inject_arrival sbf ~seq:ss (pkt data_seq))

let delivered_seqs rig = List.rev_map fst !(rig.delivered)

let delivery_time rig seq =
  match List.assoc_opt seq !(rig.delivered) with
  | Some t -> t
  | None -> Alcotest.failf "segment %d was not delivered" seq

let suite =
  [
    ( "receiver",
      [
        tc "in-order arrivals deliver immediately (both modes)" (fun () ->
            List.iter
              (fun mode ->
                let rig = make_rig ~mode () in
                arrive rig rig.sbf1 ~at:1.0 ~ss:0 ~data_seq:0;
                arrive rig rig.sbf1 ~at:2.0 ~ss:1 ~data_seq:1;
                ignore (Eventq.run rig.clock);
                Alcotest.(check (list int)) "order" [ 0; 1 ] (delivered_seqs rig);
                Alcotest.(check (float 1e-9)) "t0" 1.0 (delivery_time rig 0);
                Alcotest.(check (float 1e-9)) "t1" 2.0 (delivery_time rig 1))
              [ Tcp_subflow.Two_layer; Tcp_subflow.Immediate ]);
        tc "cross-subflow interleaving delivers in data order" (fun () ->
            let rig = make_rig ~mode:Tcp_subflow.Immediate () in
            arrive rig rig.sbf1 ~at:1.0 ~ss:0 ~data_seq:0;
            arrive rig rig.sbf2 ~at:1.5 ~ss:0 ~data_seq:2;
            arrive rig rig.sbf1 ~at:2.0 ~ss:1 ~data_seq:1;
            ignore (Eventq.run rig.clock);
            Alcotest.(check (list int)) "order" [ 0; 1; 2 ] (delivered_seqs rig);
            (* 2 had to wait for 1 *)
            Alcotest.(check (float 1e-9)) "t2 held until t1" 2.0
              (delivery_time rig 2));
        tc "paper's §4.2 pattern: subflow gap need not block meta delivery"
          (fun () ->
            (* subflow 1 loses its first segment (ss 0, data 5 — a
               retransmitted old packet); ss 1 carries data 0, which IS
               the next in-order meta data. The improved receiver pushes
               data 0 up at once; the two-layer receiver waits for the
               subflow gap to heal. *)
            let run mode =
              let rig = make_rig ~mode () in
              (* ss 0 (data 5) never arrives until 9.0 — simulated loss +
                 late retransmission *)
              arrive rig rig.sbf1 ~at:1.0 ~ss:1 ~data_seq:0;
              arrive rig rig.sbf1 ~at:9.0 ~ss:0 ~data_seq:5;
              ignore (Eventq.run rig.clock);
              rig
            in
            let improved = run Tcp_subflow.Immediate in
            Alcotest.(check (float 1e-9)) "improved delivers data 0 at 1.0" 1.0
              (delivery_time improved 0);
            let stock = run Tcp_subflow.Two_layer in
            Alcotest.(check (float 1e-9)) "stock delays data 0 until 9.0" 9.0
              (delivery_time stock 0));
        tc "subflow reordering heals within the subflow (two-layer)"
          (fun () ->
            let rig = make_rig ~mode:Tcp_subflow.Two_layer () in
            arrive rig rig.sbf1 ~at:1.0 ~ss:1 ~data_seq:1;
            arrive rig rig.sbf1 ~at:2.0 ~ss:0 ~data_seq:0;
            ignore (Eventq.run rig.clock);
            Alcotest.(check (list int)) "order" [ 0; 1 ] (delivered_seqs rig);
            Alcotest.(check (float 1e-9)) "both at heal time" 2.0
              (delivery_time rig 1));
        tc "duplicate data (redundant copies) delivers exactly once"
          (fun () ->
            let rig = make_rig ~mode:Tcp_subflow.Immediate () in
            arrive rig rig.sbf1 ~at:1.0 ~ss:0 ~data_seq:0;
            arrive rig rig.sbf2 ~at:1.2 ~ss:0 ~data_seq:0;
            arrive rig rig.sbf2 ~at:1.4 ~ss:1 ~data_seq:1;
            ignore (Eventq.run rig.clock);
            Alcotest.(check (list int)) "once" [ 0; 1 ] (delivered_seqs rig);
            Alcotest.(check (float 1e-9)) "first copy wins" 1.0
              (delivery_time rig 0));
        tc "duplicate subflow segment is ignored" (fun () ->
            let rig = make_rig ~mode:Tcp_subflow.Immediate () in
            arrive rig rig.sbf1 ~at:1.0 ~ss:0 ~data_seq:0;
            arrive rig rig.sbf1 ~at:1.5 ~ss:0 ~data_seq:0;
            ignore (Eventq.run rig.clock);
            Alcotest.(check (list int)) "once" [ 0 ] (delivered_seqs rig));
        tc "large reorder window drains correctly" (fun () ->
            let rig = make_rig ~mode:Tcp_subflow.Immediate () in
            (* data seqs 1..9 arrive first (reversed), then 0 unlocks *)
            List.iteri
              (fun i d ->
                arrive rig rig.sbf2 ~at:(1.0 +. (0.1 *. float_of_int i)) ~ss:i
                  ~data_seq:d)
              [ 9; 8; 7; 6; 5; 4; 3; 2; 1 ];
            arrive rig rig.sbf1 ~at:5.0 ~ss:0 ~data_seq:0;
            ignore (Eventq.run rig.clock);
            Alcotest.(check (list int)) "all in order" (List.init 10 Fun.id)
              (delivered_seqs rig);
            Alcotest.(check (float 1e-9)) "burst at unlock" 5.0
              (delivery_time rig 9));
        tc "ooo buffering shrinks the advertised window" (fun () ->
            let rig = make_rig ~mode:Tcp_subflow.Immediate () in
            let before = Meta_socket.rwnd_bytes rig.meta in
            arrive rig rig.sbf1 ~at:1.0 ~ss:0 ~data_seq:5;
            ignore (Eventq.run rig.clock);
            let after = Meta_socket.rwnd_bytes rig.meta in
            Alcotest.(check bool) "window shrank" true (after < before));
      ] );
  ]
