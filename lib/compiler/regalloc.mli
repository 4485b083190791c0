(** Register allocation: linear scan with second-chance binpacking
    (Traub, Holloway, Smith, PLDI'98 — the algorithm the paper's
    in-kernel cross-compiler uses).

    Pass 1 is a classic linear scan that, when no admissible register
    is free, spills the interval with the lowest weight (Σ occurrences ×
    8^loop-depth; ties: the furthest end); pass 2 (the second chance)
    re-offers the spilled intervals, heaviest first, to each register's
    timeline and packs each into any gap wide enough. An interval that
    crosses a helper call may only use r6–r9; a call-free one may also
    use r3–r5. Live ranges are not split: a virtual register has one
    home for its whole lifetime. *)

type home =
  | Reg of Isa.reg  (** r6–r9, or r3–r5 for an interval crossing no call *)
  | Stack of int  (** word slot in the frame *)

type allocation = {
  homes : home option array;  (** indexed by vreg; [None] = never used *)
  spill_slots : int;  (** stack slots consumed by spills *)
  spilled : int;  (** vregs living on the stack after the second chance *)
}

val allocate : Vcode.t -> allocation
(** Invariant (property-tested): no two virtual registers with
    overlapping live intervals share a physical register, no interval
    crossing a helper call lives in r1–r5, and every used vreg has a
    home. *)

val pp_home : Format.formatter -> home -> unit
