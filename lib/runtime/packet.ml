(** Packets — the runtime's [sk_buff] analogue.

    A packet is one MSS-sized segment of application data identified by its
    data (meta-level) sequence number. The mutable fields mirror the flags
    the paper's runtime adds to [sk_buff]s (e.g. the [in_queue] flag and the
    subflows the packet was already sent on); they are only updated
    {e between} scheduler executions, preserving the model's immutability
    guarantee during a single execution. *)

type t = {
  mutable id : int;
      (** stable handle, > 0 (0 is the NULL handle in compiled code);
          mutable only so {!Pool.alloc} can re-mint it on recycling —
          between allocation and release it never changes *)
  mutable seq : int;  (** data sequence number (segment index within the stream) *)
  mutable size : int;  (** payload bytes *)
  user_props : int array;  (** PROP1..PROP4, set via the extended API *)
  mutable sent_on_mask : int;  (** bit [i] set: pushed on subflow id [i] *)
  mutable sent_count : int;  (** number of pushes (redundant copies) *)
  mutable enqueue_time : float;  (** when the application queued the data *)
  mutable acked : bool;  (** meta-level (data) acknowledgement received *)
  mutable reg_stamp : int;
      (** engine scratch: generation of the execution that last
          registered this packet (see {!Progmp_compiler.Threaded});
          valid only together with [reg_handle] *)
  mutable reg_handle : int;
      (** engine scratch: the handle minted for [reg_stamp]'s
          execution *)
  mutable pooled : bool;  (** sitting in a {!Pool} freelist right now *)
  mutable pool_gen : int;
      (** how many times this packet went through a pool: bumped at
          {!Pool.release}, the generation stamp the arena-recycling
          property tests check *)
}

(* Atomic so concurrent simulations (one per domain in a parallel
   experiment sweep) still mint unique ids. Id values never influence
   simulated behaviour — they are compared only for equality — so the
   cross-domain interleaving does not break run determinism. *)
let next_id = Atomic.make 0

(** Create a fresh packet with a process-unique positive id. *)
let create ?(props = [||]) ~seq ~size ~now () =
  let id = Atomic.fetch_and_add next_id 1 + 1 in
  let user_props = Array.make Progmp_lang.Props.num_user_props 0 in
  Array.iteri (fun i v -> if i < Array.length user_props then user_props.(i) <- v) props;
  {
    id;
    seq;
    size;
    user_props;
    sent_on_mask = 0;
    sent_count = 0;
    enqueue_time = now;
    acked = false;
    reg_stamp = 0;
    reg_handle = 0;
    pooled = false;
    pool_gen = 0;
  }

(** The NULL packet (id 0): padding for packet-typed arena slots. Never
    enqueued, never scheduled, never mutated. *)
let dummy =
  {
    id = 0;
    seq = -1;
    size = 0;
    user_props = [||];
    sent_on_mask = 0;
    sent_count = 0;
    enqueue_time = 0.0;
    acked = false;
    reg_stamp = 0;
    reg_handle = 0;
    pooled = false;
    pool_gen = 0;
  }

(** A packet arena: recycles packet records through an explicit
    freelist so a fleet hosting millions of transient connections
    allocates packet structures in proportion to peak in-flight data,
    not total arrivals. Ownership discipline (see ARCHITECTURE.md,
    "memory discipline at fleet scale"): a packet is released exactly
    when its owning connection retires and every release is
    flag-deduplicated ([pooled]), because one packet may sit in several
    queues at once. [pool_gen] counts recyclings; the fleet property
    tests use it to prove a recycled slot holds no reference to a
    prior-generation packet. *)
module Pool = struct
  type packet = t

  let fresh = create

  type t = {
    free : packet Array_stack.t;  (** padded with {!dummy} *)
    mutable created : int;  (** records ever allocated by this pool *)
    mutable outstanding : int;  (** live (allocated, not yet released) *)
    mutable releases : int;  (** total releases = total recyclings *)
  }

  let create () =
    {
      free = Array_stack.create ~pad:dummy;
      created = 0;
      outstanding = 0;
      releases = 0;
    }

  let created t = t.created
  let outstanding t = t.outstanding
  let releases t = t.releases
  let free_count t = Array_stack.length t.free

  (** Like {!val-create} but drawing from the freelist when possible.
      Recycled packets are re-minted with a fresh process-unique id, so
      a stale holder from a prior generation can never alias the new
      incarnation by id. *)
  let alloc t ~props ~seq ~size ~now =
    let p = Array_stack.pop t.free in
    if p == dummy then begin
      t.created <- t.created + 1;
      t.outstanding <- t.outstanding + 1;
      fresh ~props ~seq ~size ~now ()
    end
    else begin
      t.outstanding <- t.outstanding + 1;
      p.pooled <- false;
      p.id <- Atomic.fetch_and_add next_id 1 + 1;
      p.seq <- seq;
      p.size <- size;
      let n = Array.length p.user_props in
      (* a loop, not Array.iteri: no closure per recycled packet *)
      for i = 0 to n - 1 do
        p.user_props.(i) <- (if i < Array.length props then props.(i) else 0)
      done;
      p.sent_on_mask <- 0;
      p.sent_count <- 0;
      p.enqueue_time <- now;
      p.acked <- false;
      p.reg_stamp <- 0;
      p.reg_handle <- 0;
      p
    end

  (** Return [p] to the freelist. Idempotent per incarnation: a packet
      referenced from several queues is released once ([pooled] flag);
      the NULL packet is ignored. *)
  let release t p =
    if (not p.pooled) && p != dummy then begin
      p.pooled <- true;
      p.pool_gen <- p.pool_gen + 1;
      t.outstanding <- t.outstanding - 1;
      t.releases <- t.releases + 1;
      Array_stack.push t.free p
    end
end

let sent_on t ~sbf_id = t.sent_on_mask land (1 lsl sbf_id) <> 0

let mark_sent t ~sbf_id =
  t.sent_on_mask <- t.sent_on_mask lor (1 lsl sbf_id);
  t.sent_count <- t.sent_count + 1

let user_prop t i =
  if i >= 0 && i < Array.length t.user_props then t.user_props.(i) else 0

let set_user_prop t i v =
  if i >= 0 && i < Array.length t.user_props then t.user_props.(i) <- v

let pp ppf t =
  Fmt.pf ppf "pkt#%d(seq=%d,size=%d,sent=%d)" t.id t.seq t.size t.sent_count
