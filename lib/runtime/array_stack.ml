type 'a t = { mutable cells : 'a array; mutable len : int; pad : 'a }

let create ~pad = { cells = [||]; len = 0; pad }

let length t = t.len

let push t x =
  let n = t.len in
  if n = Array.length t.cells then begin
    let a = Array.make (max 16 (2 * n)) t.pad in
    Array.blit t.cells 0 a 0 n;
    t.cells <- a
  end;
  Array.unsafe_set t.cells n x;
  t.len <- n + 1

let pop t =
  let n = t.len - 1 in
  if n < 0 then t.pad
  else begin
    let x = Array.unsafe_get t.cells n in
    Array.unsafe_set t.cells n t.pad;
    t.len <- n;
    x
  end

let clear t =
  Array.fill t.cells 0 t.len t.pad;
  t.len <- 0

let to_list t = Array.to_list (Array.sub t.cells 0 t.len)
