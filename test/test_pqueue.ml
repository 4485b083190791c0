(** Property tests for the augmented packet queue (mid-queue removal,
    front reinsertion, cumulative-ack removal) against a list model. *)

open Progmp_runtime
open Helpers

type op =
  | Push_next of int  (** push_back [d] past the largest seq so far *)
  | Push_back of int
  | Push_front of int
  | Pop_front
  | Remove_at of int
  | Ack_below of int  (** [upto] is the front seq plus [k] *)

(* Mostly in-order pushes, as a send queue sees them, mixed with
   out-of-order ones (arbitrary seqs at either end), so [ack_below]
   runs both its head trim on sorted queues and its compacting pass on
   unsorted ones — including compactions that leave the queue sorted
   again. *)
let gen_ops =
  let open QCheck2.Gen in
  small_list
    (frequency
       [
         (6, map (fun d -> Push_next (abs d mod 3)) small_int);
         (1, map (fun s -> Push_back (abs s mod 64)) small_int);
         (1, map (fun s -> Push_front (abs s mod 64)) small_int);
         (1, return Pop_front);
         (1, map (fun i -> Remove_at (abs i mod 12)) small_int);
         (3, map (fun k -> Ack_below (abs k mod 12)) small_int);
       ])

(* The seq of a removed packet; [None] for the NULL packet an
   out-of-range removal returns. *)
let seq_opt (p : Packet.t) = if p == Packet.dummy then None else Some p.Packet.seq

let rec is_sorted = function
  | a :: (b :: _ as rest) -> a <= b && is_sorted rest
  | _ -> true

(* A packet arrives acked already when its seq is a multiple of 4, so
   an ack can remove both fresh and already-acked packets. *)
let pre_acked seq = seq mod 4 = 0

(* How often [Ack_below] met each queue shape, over the ops run by
   [model_matches]: sorted, unsorted, and unsorted made sorted by the
   removal. *)
type coverage = { mutable trims : int; mutable compactions : int; mutable resorted : int }

(* Execute ops against both the real queue and a list model of its
   packets; compare seqs and [acked] flags. *)
let model_matches ?(cov = { trims = 0; compactions = 0; resorted = 0 }) ops =
  let q = Pqueue.create () in
  let model = ref [] in
  let top = ref 0 in
  let mk seq =
    top := max !top seq;
    let p = Packet.create ~seq ~size:100 ~now:0.0 () in
    p.Packet.acked <- pre_acked seq;
    p
  in
  let seq (p : Packet.t) = p.Packet.seq in
  List.for_all
    (fun op ->
      (match op with
      | Push_next d ->
          let p = mk (!top + d) in
          Pqueue.push_back q p;
          model := !model @ [ p ]
      | Push_back s ->
          let p = mk s in
          Pqueue.push_back q p;
          model := !model @ [ p ]
      | Push_front s ->
          let p = mk s in
          Pqueue.push_front q p;
          model := p :: !model
      | Pop_front -> (
          let got = seq_opt (Pqueue.pop_front q) in
          match !model with
          | [] -> assert (got = None)
          | x :: rest ->
              assert (got = Some (seq x));
              model := rest)
      | Remove_at i -> (
          let got = seq_opt (Pqueue.remove_at q i) in
          if i < List.length !model then begin
            assert (got = Some (seq (List.nth !model i)));
            model := List.filteri (fun j _ -> j <> i) !model
          end
          else assert (got = None))
      | Ack_below k ->
          let upto = match !model with [] -> k | x :: _ -> seq x + k in
          let removed, kept = List.partition (fun p -> seq p < upto) !model in
          let fresh = List.exists (fun (p : Packet.t) -> not p.Packet.acked) removed in
          assert (Pqueue.ack_below q upto = fresh);
          assert (List.for_all (fun (p : Packet.t) -> p.Packet.acked) removed);
          if is_sorted (List.map seq !model) then cov.trims <- cov.trims + 1
          else begin
            cov.compactions <- cov.compactions + 1;
            if is_sorted (List.map seq kept) && removed <> [] then
              cov.resorted <- cov.resorted + 1
          end;
          model := kept);
      seqs_of q = List.map seq !model
      && Pqueue.length q = List.length !model
      && List.for_all (fun (p : Packet.t) -> p.Packet.acked = pre_acked p.Packet.seq) !model)
    ops

let qprop =
  QCheck2.Test.make ~name:"pqueue behaves like a list model" ~count:1000
    gen_ops (fun ops -> model_matches ops)

let fill n =
  let q = Pqueue.create () in
  for i = 0 to n - 1 do
    Pqueue.push_back q (Packet.create ~seq:i ~size:1 ~now:0.0 ())
  done;
  q

(* Minor words allocated by [f ()]; [f]'s own result is dropped. *)
let minor_words_of f =
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. before

let suite =
  [
    ( "pqueue",
      [
        tc "empty queue basics" (fun () ->
            let q = Pqueue.create () in
            Alcotest.(check bool) "empty" true (Pqueue.is_empty q);
            Alcotest.(check int) "len" 0 (Pqueue.length q);
            Alcotest.(check bool) "pop null" true (Pqueue.pop_front q == Packet.dummy);
            Alcotest.(check bool) "remove_at null" true
              (Pqueue.remove_at q (-1) == Packet.dummy);
            Alcotest.(check bool) "nth none" true (Pqueue.nth q 0 = None));
        tc "fifo order" (fun () ->
            let q = Pqueue.create () in
            for i = 0 to 99 do
              Pqueue.push_back q (Packet.create ~seq:i ~size:1 ~now:0.0 ())
            done;
            Alcotest.(check (list int)) "order" (List.init 100 Fun.id) (seqs_of q));
        tc "growth across wrap-around" (fun () ->
            let q = Pqueue.create () in
            (* interleave pushes and pops to move the head offset, then
               force growth *)
            for i = 0 to 9 do
              Pqueue.push_back q (Packet.create ~seq:i ~size:1 ~now:0.0 ())
            done;
            for _ = 0 to 7 do
              ignore (Pqueue.pop_front q)
            done;
            for i = 10 to 59 do
              Pqueue.push_back q (Packet.create ~seq:i ~size:1 ~now:0.0 ())
            done;
            Alcotest.(check (list int)) "order preserved"
              (List.init 52 (fun i -> i + 8))
              (seqs_of q));
        tc "remove_packet by identity" (fun () ->
            let q = Pqueue.create () in
            let p1 = Packet.create ~seq:1 ~size:1 ~now:0.0 () in
            let p2 = Packet.create ~seq:2 ~size:1 ~now:0.0 () in
            Pqueue.push_back q p1;
            Pqueue.push_back q p2;
            Alcotest.(check bool) "removed" true (Pqueue.remove_packet q p1);
            Alcotest.(check bool) "gone" false (Pqueue.mem q p1);
            Alcotest.(check bool) "kept" true (Pqueue.mem q p2);
            Alcotest.(check bool) "second removal fails" false
              (Pqueue.remove_packet q p1));
        tc "clear" (fun () ->
            let q = Pqueue.create () in
            Pqueue.push_back q (Packet.create ~seq:0 ~size:1 ~now:0.0 ());
            Pqueue.clear q;
            Alcotest.(check int) "len" 0 (Pqueue.length q));
        QCheck_alcotest.to_alcotest qprop;
        tc "generated ops reach every ack_below shape" (fun () ->
            let cov = { trims = 0; compactions = 0; resorted = 0 } in
            let rand = Random.State.make [| 16 |] in
            List.iter
              (fun ops -> assert (model_matches ~cov ops))
              (QCheck2.Gen.generate ~rand ~n:300 gen_ops);
            Alcotest.(check bool) "head trims" true (cov.trims > 0);
            Alcotest.(check bool) "compactions" true (cov.compactions > 0);
            Alcotest.(check bool) "compactions that re-sort" true (cov.resorted > 0));
        tc "ack_below: head trim, compaction, sorted again" (fun () ->
            let q = Pqueue.create () in
            let packets =
              List.map (fun s -> Packet.create ~seq:s ~size:1 ~now:0.0 ()) [ 3; 4; 9; 1; 6; 7 ]
            in
            List.iter (Pqueue.push_back q) packets;
            let acked () =
              List.filter_map
                (fun (p : Packet.t) -> if p.Packet.acked then Some p.Packet.seq else None)
                packets
            in
            Alcotest.(check bool) "unsorted: compacted, progress" true (Pqueue.ack_below q 5);
            Alcotest.(check (list int)) "kept in order" [ 9; 6; 7 ] (seqs_of q);
            Alcotest.(check (list int)) "removed ones acked" [ 3; 4; 1 ] (acked ());
            Alcotest.(check bool) "compacted again, progress" true (Pqueue.ack_below q 8);
            Alcotest.(check (list int)) "sorted again" [ 9 ] (seqs_of q);
            Alcotest.(check (list int)) "acked again" [ 3; 4; 1; 6; 7 ] (acked ());
            let p12 = Packet.create ~seq:12 ~size:1 ~now:0.0 () in
            Pqueue.push_back q p12;
            Alcotest.(check bool) "nothing below 9: no progress" false (Pqueue.ack_below q 9);
            Alcotest.(check bool) "head trim, progress" true (Pqueue.ack_below q 10);
            Alcotest.(check (list int)) "rest" [ 12 ] (seqs_of q);
            p12.Packet.acked <- true;
            Alcotest.(check bool) "an acked packet removed: no progress" false
              (Pqueue.ack_below q 13);
            Alcotest.(check bool) "emptied" true (Pqueue.is_empty q));
        tc "ack_below allocates nothing" (fun () ->
            let n = 10_000 in
            let q = fill n in
            let none = minor_words_of (fun () -> Pqueue.ack_below q 0) in
            Alcotest.(check bool)
              (Fmt.str "removing nothing: %.0f words" none)
              true (none <= 8.0);
            let k = 100 in
            let some = minor_words_of (fun () -> Pqueue.ack_below q k) in
            Alcotest.(check int) "k removed" (n - k) (Pqueue.length q);
            Alcotest.(check bool)
              (Fmt.str "removing %d: %.0f words" k some)
              true (some <= 8.0);
            (* an out-of-order packet at the front sends the next
               removal down the compacting pass *)
            Pqueue.push_front q (Packet.create ~seq:max_int ~size:1 ~now:0.0 ());
            let some = minor_words_of (fun () -> Pqueue.ack_below q (2 * k)) in
            Alcotest.(check int) "k more removed" (n - (2 * k) + 1) (Pqueue.length q);
            Alcotest.(check bool)
              (Fmt.str "compacting %d out: %.0f words" k some)
              true (some <= 8.0));
      ] );
  ]
