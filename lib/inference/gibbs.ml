module Fgraph = Factor_graph.Fgraph

type options = { burn_in : int; samples : int; seed : int }

let default_options = { burn_in = 200; samples = 800; seed = 42 }

type kernel = {
  n : int;
  off : int array;
  slots : int array;
  weights : float array;
}

(* What flipping the slot's variable [v] from false to true adds to the
   log-weight of its factor [f], as [w * (st.(a) land (st.(b) lxor inv))]:
   a prior (no body atom) always adds its weight; a head adds it iff
   both body atoms are true (a lone body atom fills [a] and [b]); a body
   atom subtracts it iff the other body atom (the one cell when absent)
   is true and the head false; and a head that is also a body atom
   leaves [f] satisfied either way, so its slot reads the zero cell.
   Every read of [c] is bounds-checked and every variable range-checked,
   so a kernel that builds holds only slots inside its arrays and state
   indexes below [n + 2]: what lets [log_odds] read them unchecked. *)
let kernel c =
  let n = Fgraph.nvars c in
  let one = n and zero = n + 1 in
  let var ~min v =
    if v < min || v >= n then invalid_arg "Gibbs.kernel: variable out of range";
    v
  in
  let off = Array.sub c.Fgraph.adj_off 0 (n + 1) in
  let m = Array.length c.Fgraph.adj in
  let slots = Array.make (3 * m) zero and weights = Array.make m 0. in
  let code k a b inv w =
    slots.(3 * k) <- a;
    slots.((3 * k) + 1) <- b;
    slots.((3 * k) + 2) <- inv;
    weights.(k) <- w
  in
  for v = 0 to n - 1 do
    for k = off.(v) to off.(v + 1) - 1 do
      let f = c.Fgraph.adj.(k) in
      let h = var ~min:0 c.Fgraph.head.(f)
      and b1 = var ~min:(-1) c.Fgraph.body1.(f)
      and b2 = var ~min:(-1) c.Fgraph.body2.(f)
      and w = c.Fgraph.fweight.(f) in
      if b1 < 0 && b2 < 0 then code k one one 0 w
      else if v <> h then begin
        let x = if v = b1 then b2 else b1 in
        code k (if x < 0 || x = v then one else x) h 1 (-.w)
      end
      else if v = b1 || v = b2 then code k zero zero 0 0.
      else begin
        let x = if b1 >= 0 then b1 else b2 in
        code k x (if b2 >= 0 then b2 else x) 0 w
      end
    done
  done;
  { n; off; slots; weights }

let state n bit =
  Array.init (n + 2) (fun v -> Bool.to_int (if v < n then bit v else v = n))

(* Every slot's term in slot order, from [+0.].  A term whose mask is 0
   is [±0.], and adding [±0.] to a sum that is never [-0.] leaves it as
   it is, so the sum is the float that adding only the terms whose mask
   is 1 gives: the satisfied-flip sum, slot by slot.  The kernel's own
   arrays are valid by construction and [st] is checked once, so the
   loop reads without bounds checks. *)
let[@inline] log_odds k st v =
  if Array.length st <> k.n + 2 then invalid_arg "Gibbs.log_odds: state size";
  let slots = k.slots and weights = k.weights in
  let delta = ref 0. in
  for s = k.off.(v) to k.off.(v + 1) - 1 do
    let a = Array.unsafe_get slots (3 * s)
    and b = Array.unsafe_get slots ((3 * s) + 1)
    and inv = Array.unsafe_get slots ((3 * s) + 2) in
    let mask = Array.unsafe_get st a land (Array.unsafe_get st b lxor inv) in
    delta := !delta +. (Array.unsafe_get weights s *. float_of_int mask)
  done;
  !delta

type cell = { mutable value : float }

let[@inline] conditional k st v out =
  out.value <- 1. /. (1. +. exp (-.log_odds k st v))
