(** Disassembler for compiled scheduler code (the CLI's [compile -d]
    output and the debugging analogue of the paper's proc interface).
    Superinstructions print as one mnemonic; flat-encoded programs are
    decoded back to {!Isa} instructions first. *)

val pp_instr : Format.formatter -> Isa.instr -> unit

val pp_program : Format.formatter -> Isa.instr array -> unit

val to_string : Isa.instr array -> string

val pp_flat : Format.formatter -> int array -> unit
(** Disassemble a {!Flat} stream, showing each instruction's index and
    word offset. @raise Invalid_argument on a malformed stream. *)

val flat_to_string : int array -> string
