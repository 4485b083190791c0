(** A stack on a growable array whose unused cells hold a padding value.

    A push stores the element itself (no cons cell, no [Some]) and a pop
    hands it back and pads its cell, so the stack never keeps a popped
    element alive. The array only grows, doubling when full: a stack
    that has reached its high-water mark allocates nothing. Every
    freelist of recycled records — packets, events, in-flight entries,
    ack and handshake cells — is one of these. *)

type 'a t = { mutable cells : 'a array; mutable len : int; pad : 'a }
(** The first [len] cells hold the elements, bottom first; the others
    hold [pad]. Concrete only so that a recursive value can hold a stack
    padded with itself (a pool's padding entry belongs to a pool); use
    the functions below. *)

val create : pad:'a -> 'a t
(** An empty stack; no array is allocated until the first push. [pad]
    fills the unused cells and is what {!pop} returns when empty. *)

val length : 'a t -> int

val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a
(** The top element, removed; [pad] when the stack is empty. *)

val clear : 'a t -> unit
(** Empty the stack, padding the cells it used; keeps the array. *)

val to_list : 'a t -> 'a list
(** The elements, bottom first. *)
