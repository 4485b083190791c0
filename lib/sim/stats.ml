(** Scalar statistics used by the bench harness and the experiment
    worlds. Time series come from [Mptcp_obs.Metrics]. *)

let mean = function
  | [] -> 0.0
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let percentile p l =
  match List.sort compare l with
  | [] -> 0.0
  | sorted ->
      let n = List.length sorted in
      let idx = int_of_float (Float.of_int (n - 1) *. p) in
      List.nth sorted (min (n - 1) (max 0 idx))

let median l = percentile 0.5 l

(** Jain fairness index of a set of allocations:
    (sum x)^2 / (n * sum x^2), in (0, 1] with 1 = perfectly fair.
    0 for an empty or all-zero list. *)
let jain = function
  | [] -> 0.0
  | l ->
      let s = List.fold_left ( +. ) 0.0 l in
      let sq = List.fold_left (fun a x -> a +. (x *. x)) 0.0 l in
      if sq <= 0.0 then 0.0
      else s *. s /. (float_of_int (List.length l) *. sq)

let stddev l =
  let m = mean l in
  match l with
  | [] | [ _ ] -> 0.0
  | _ ->
      let var =
        List.fold_left (fun a x -> a +. ((x -. m) *. (x -. m))) 0.0 l
        /. float_of_int (List.length l - 1)
      in
      sqrt var
