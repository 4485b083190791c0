(** First-class execution-engine registry — see engine.mli. *)

type caps = {
  compiled : bool;
  verified : bool;
  description : string;
}

type factory = Progmp_lang.Tast.program -> Env.t -> unit

type t = { engine_name : string; caps : caps; factory : factory }

exception Unknown of string

let registry : (string, t) Hashtbl.t = Hashtbl.create 8

let register ?caps name factory =
  let caps =
    match caps with
    | Some c -> c
    | None -> { compiled = false; verified = false; description = name }
  in
  Hashtbl.replace registry name { engine_name = name; caps; factory }

(* Compiled-code cache, one table per engine, keyed on the program
   itself: [Scheduler]'s front-end cache interns one program per source
   digest, so physical identity stands for the digest. The hash reads
   only the head of the body, never the whole source text. Ephemerons
   let the code of a program nobody holds any more (a fuzz case, a
   one-off test program) be collected with it. *)
module Code_cache = Ephemeron.K1.Make (struct
  type t = Progmp_lang.Tast.program

  let equal = ( == )
  let hash (p : t) = Hashtbl.hash p.Progmp_lang.Tast.body
end)

let cache_hits = Atomic.make 0

let cache_misses = Atomic.make 0

let cache_stats () = (Atomic.get cache_hits, Atomic.get cache_misses)

let register_compiled ?caps name ~compile ~instantiate =
  let cache = Code_cache.create 16 and lock = Mutex.create () in
  (* The compile runs under the lock, so domains racing to the first
     instantiation of a program still compile it exactly once. *)
  let code program =
    Mutex.protect lock (fun () ->
        match Code_cache.find_opt cache program with
        | Some code ->
            Atomic.incr cache_hits;
            code
        | None ->
            Atomic.incr cache_misses;
            let code = compile program in
            Code_cache.replace cache program code;
            code)
  in
  register ?caps name (fun program -> instantiate (code program))

let find name = Hashtbl.find_opt registry name

let names () =
  List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) registry [])

let all () = List.filter_map find (names ())

let get name =
  match find name with
  | Some e -> e
  | None ->
      raise
        (Unknown
           (Fmt.str "unknown engine %s (available: %s)" name
              (String.concat ", " (names ()))))

let instantiate name program = (get name).factory program

(* The two runtime-resident backends register themselves when this
   library is linked; [Progmp_compiler.Compile] adds "threaded". The
   interpreter's code is the program itself and needs no scratch; the
   AOT's is its closure tree, which allocates its frame per execution. *)
let () =
  register_compiled "interpreter"
    ~caps:
      {
        compiled = false;
        verified = false;
        description = "reference tree-walking interpreter over the typed IR";
      }
    ~compile:Fun.id ~instantiate:Interpreter.run;
  register_compiled "aot"
    ~caps:
      {
        compiled = true;
        verified = false;
        description = "ahead-of-time closure compiler (the paper's AOT backend)";
      }
    ~compile:Aot.compile ~instantiate:Aot.instantiate
