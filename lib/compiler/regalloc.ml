(** Register allocation: linear scan with second-chance binpacking.

    The paper's cross-compiler uses the Second-Chance Binpacking variant
    of linear-scan allocation (Traub, Holloway, Smith, PLDI'98), chosen
    for its low compile-time cost compared to graph coloring. This module
    implements the binpacking view of that algorithm: each physical
    register is a timeline (a "bin") into which non-overlapping live
    intervals are packed.

    - Every interval has a spill weight: the sum over its occurrences
      (definitions and uses) of [8^depth], [depth] being the number of
      loops around the occurrence. Loop counters, masks and accumulators
      weigh the most; a long-lived value read once weighs the least.
    - An interval that strictly contains a helper call may only live in
      the callee-saved registers r6–r9; a call-free interval may also
      use r3–r5, which no call sequence writes (helpers take at most two
      arguments, in r1/r2; r0/r2 are {!Emit}'s scratch), and prefers
      them, leaving r6–r9 to the intervals that need them.
    - Pass 1 is a classic linear scan over intervals sorted by start;
      when no admissible register is free, the lightest interval among
      the current one and the active ones holding an admissible register
      goes to the stack, ties broken by the furthest end.
    - Pass 2 is the second chance: the intervals that ended up on the
      stack, heaviest first, are offered again to each admissible
      register's timeline and packed into the first bin with a gap wide
      enough — registers often have such gaps after their earlier
      tenants expired.

    Unlike the full algorithm we do not split live ranges; a virtual
    register has one home for its whole lifetime. This forgoes some
    quality but keeps lowering single-pass and the verifier simple, and
    spill traffic only affects the constant factor of scheduler
    execution, which the overhead benchmark (Fig. 9) measures. *)

type home =
  | Reg of Isa.reg  (** r6–r9, or r3–r5 for an interval crossing no call *)
  | Stack of int  (** word slot in the frame *)

type allocation = {
  homes : home option array;  (** indexed by vreg; [None] = never used *)
  spill_slots : int;  (** number of stack slots consumed by spills *)
  spilled : int;  (** number of vregs living on the stack *)
}

let overlaps (s1, e1) (s2, e2) = not (e1 < s2 || e2 < s1)

(* Spill weight per vreg: Σ over occurrences of 8^(loop depth). *)
let weights (v : Vcode.t) =
  let w = Array.make v.Vcode.num_vregs 0.0 in
  Array.iteri
    (fun pos instr ->
      let depth =
        List.fold_left
          (fun d (ls, le) -> if ls <= pos && pos < le then d + 1 else d)
          0 v.Vcode.loops
      in
      let cost = 8.0 ** float_of_int depth in
      let defs, uses = Vcode.defs_uses instr in
      List.iter (fun r -> w.(r) <- w.(r) +. cost) (defs @ uses))
    v.Vcode.code;
  w

(* The predicate "a helper call sits strictly inside the interval
   [(s, e)]": an argument read at the call or a result written by it
   does not cross it. *)
let call_crossing (v : Vcode.t) =
  let len = Array.length v.Vcode.code in
  (* calls_before.(k) = number of calls at positions < k *)
  let calls_before = Array.make (len + 1) 0 in
  Array.iteri
    (fun pos instr ->
      calls_before.(pos + 1) <-
        (calls_before.(pos)
        + match instr with Vcode.Vcall _ -> 1 | _ -> 0))
    v.Vcode.code;
  fun (s, e) -> e > s + 1 && calls_before.(e) - calls_before.(s + 1) > 0

let allocate (v : Vcode.t) : allocation =
  let iv = Vcode.intervals v in
  let n = Array.length iv in
  let weight = weights v in
  let crosses = call_crossing v in
  let admissible =
    Array.map
      (function
        | Some interval -> Isa.allocatable ~crosses_call:(crosses interval)
        | None -> [])
      iv
  in
  let in_reg = Array.make n None in
  (* Intervals sorted by increasing start position. *)
  let order =
    List.sort
      (fun a b ->
        match (iv.(a), iv.(b)) with
        | Some (s1, _), Some (s2, _) -> compare (s1, a) (s2, b)
        | _ -> assert false)
      (List.filter (fun x -> iv.(x) <> None) (List.init n Fun.id))
  in
  let stop vreg = match iv.(vreg) with Some (_, e) -> e | None -> -1 in
  (* The interval to spill of two: the lighter, else the one ending
     further away. *)
  let lighter a b =
    if weight.(a) < weight.(b) then a
    else if weight.(b) < weight.(a) then b
    else if stop a >= stop b then a
    else b
  in
  (* Pass 1: linear scan with an explicit active set. *)
  let active = ref [] (* (vreg, reg) *) in
  List.iter
    (fun vreg ->
      let start = match iv.(vreg) with Some (s, _) -> s | None -> -1 in
      active := List.filter (fun (a, _) -> stop a >= start) !active;
      let taken r = List.exists (fun (_, r') -> r' = r) !active in
      match List.find_opt (fun r -> not (taken r)) admissible.(vreg) with
      | Some r ->
          in_reg.(vreg) <- Some r;
          active := (vreg, r) :: !active
      | None ->
          let victim =
            List.fold_left
              (fun best (a, r) ->
                if List.mem r admissible.(vreg) then lighter best a else best)
              vreg !active
          in
          if victim <> vreg then begin
            let r = Option.get in_reg.(victim) in
            in_reg.(victim) <- None;
            in_reg.(vreg) <- Some r;
            active := (vreg, r) :: List.remove_assoc victim !active
          end)
    order;
  (* Register timelines: every vreg packed into each register. *)
  let timeline r =
    List.filter (fun x -> in_reg.(x) = Some r) (List.init n Fun.id)
  in
  let timelines = Hashtbl.create 8 in
  List.iter
    (fun r -> Hashtbl.replace timelines r (timeline r))
    (Isa.allocatable ~crosses_call:false);
  (* Pass 2 — the second chance: pack each spilled interval, heaviest
     first, into a register timeline gap. *)
  let spilled =
    List.stable_sort
      (fun a b -> compare weight.(b) weight.(a))
      (List.filter (fun x -> in_reg.(x) = None) order)
  in
  List.iter
    (fun vreg ->
      let interval = Option.get iv.(vreg) in
      let fits r =
        List.for_all
          (fun other -> not (overlaps interval (Option.get iv.(other))))
          (Hashtbl.find timelines r)
      in
      match List.find_opt fits admissible.(vreg) with
      | Some r ->
          in_reg.(vreg) <- Some r;
          Hashtbl.replace timelines r (vreg :: Hashtbl.find timelines r)
      | None -> ())
    spilled;
  (* Frame slots for what is left on the stack, in order of start. *)
  let slots = ref 0 in
  let homes = Array.make n None in
  List.iter
    (fun vreg ->
      homes.(vreg) <-
        (match in_reg.(vreg) with
        | Some r -> Some (Reg r)
        | None ->
            let s = !slots in
            incr slots;
            Some (Stack s)))
    order;
  { homes; spill_slots = !slots; spilled = !slots }

let pp_home ppf = function
  | Reg r -> Fmt.pf ppf "r%d" r
  | Stack s -> Fmt.pf ppf "stack[%d]" s
