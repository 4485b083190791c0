(** Disassembler for compiled scheduler code (the CLI's [compile -d]
    output and the debugging analogue of the paper's proc interface).
    Superinstructions print as one mnemonic. *)

val pp_instr : Format.formatter -> Isa.instr -> unit

val pp_program : Format.formatter -> Isa.instr array -> unit

val to_string : Isa.instr array -> string
