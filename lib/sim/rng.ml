(** Deterministic pseudo-random numbers (SplitMix64).

    Every stochastic element of the simulator — link loss, jitter,
    bandwidth fluctuation, workload arrivals — draws from an explicitly
    seeded generator, so that every experiment in the bench harness is
    exactly reproducible. *)

(* The 64-bit state lives in an 8-byte buffer rather than a mutable
   [int64] field: the field would box a fresh [int64] on every draw,
   while the buffer is read and written in place, so a draw allocates
   nothing. *)
type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let of_state s =
  let t = Bytes.create 8 in
  set_state t 0 s;
  t

(** Restart [t] from [seed] in place: afterwards it draws exactly what
    [create seed] would (a recycled connection reuses its generator). *)
let reseed t seed = set_state t 0 (Int64.of_int seed)

let create seed = of_state (Int64.of_int seed)

(* SplitMix64 step (Steele, Lea, Flood 2014). *)
let[@inline] next_int64 t =
  let z = Int64.add (get_state t 0) 0x9E3779B97F4A7C15L in
  set_state t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(** Uniform float in [0, 1). *)
let[@inline] float t =
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits /. 9007199254740992.0 (* 2^53 *)

(** Uniform int in [0, bound). [bound] must be positive. *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  int_of_float (float t *. float_of_int bound)

(** Bernoulli draw. *)
let coin t ~p = float t < p

(** Exponential with the given [mean]. *)
let exponential t ~mean =
  let u = float t in
  -.mean *. log (1.0 -. u)

(** Standard normal via Box-Muller. *)
let gaussian t =
  let u1 = float t and u2 = float t in
  let u1 = if u1 <= 1e-12 then 1e-12 else u1 in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

(** Split off an independently seeded generator (for sub-components). *)
let split t = of_state (next_int64 t)

(* SplitMix64 finalizer on its own: a strong 64-bit mixing function. *)
let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(** Keyed stream derivation: the [index]-th independent stream of
    [seed]. Unlike {!split} this is a pure function of [(seed, index)] —
    no generator state is consumed — so any number of concurrent
    consumers (e.g. the parallel runs of an experiment sweep) can derive
    their streams in any order and still observe bit-identical draws. *)
let stream ~seed index =
  let a = mix (Int64.add (Int64.of_int seed) 0x9E3779B97F4A7C15L) in
  let b = mix (Int64.add (Int64.of_int index) 0xBF58476D1CE4E5B9L) in
  of_state (mix (Int64.logxor a b))

(** An integer seed derived from [(seed, index)], for components that
    take a seed rather than a generator (e.g. {!Connection.create}). *)
let stream_seed ~seed index =
  (* shift by 2, not 1: a native int holds 63 bits, so a 63-bit value
     would wrap negative in Int64.to_int *)
  Int64.to_int (Int64.shift_right_logical (mix (Int64.logxor
    (mix (Int64.of_int seed)) (Int64.add (Int64.of_int index) 0x94D049BB133111EBL))) 2)
