(* [bits.[row]] is ['\001'] once [row] is killed; rows past its length
   are live. *)
type t = { mutable bits : Bytes.t; mutable count : int }

let create () = { bits = Bytes.empty; count = 0 }
let copy t = { bits = Bytes.copy t.bits; count = t.count }
let count t = t.count

let live t row =
  t.count = 0
  || row >= Bytes.length t.bits
  || Bytes.unsafe_get t.bits row = '\000'

let kill t row =
  if not (live t row) then false
  else begin
    let len = Bytes.length t.bits in
    if row >= len then begin
      let bits = Bytes.make (Int.max (row + 1) (2 * len)) '\000' in
      Bytes.blit t.bits 0 bits 0 len;
      t.bits <- bits
    end;
    Bytes.set t.bits row '\001';
    t.count <- t.count + 1;
    true
  end

let clear t =
  t.bits <- Bytes.empty;
  t.count <- 0
