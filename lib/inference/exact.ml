module Fgraph = Factor_graph.Fgraph

let max_vars = 25

(* The measure factorizes over connected components of the factor graph,
   so marginals are computed per component: 2^c worlds for each component
   of c variables instead of 2^n for the whole graph, and the variable
   cap applies per component.  {!Decompose} owns the component finding
   and the canonical factor/variable ordering that keeps the enumeration
   bit-reproducible across graph assemblies (see its documentation). *)

(* Up to this many variables a world's log-weight is computed once and
   kept: 2^16 floats, 512 KiB.  It is [Hybrid.enum_cutoff], so every
   component Hybrid prefers to enumerate takes the stored path; the
   dense 17-25-variable components it falls back to evaluate each world
   twice rather than allocate up to 2^25 floats. *)
let stored_max_vars = 16

(* Enumerate one canonical component's 2^k worlds; P(X=1) per local
   variable.  World [w] sets local variable [v] iff bit [v] of [w] is
   set.  Factor [f] is satisfied unless its whole body [body.(f)] is
   true and its head [head.(f)] false (a prior has an empty body): that
   is, iff [missing], the body bits the world lacks and the head bit it
   has, is not 0.  A world's log-weight adds every factor's weight times
   that 0/1 mask, in canonical factor order from [+0.], and a world's
   mass goes to each variable times its bit, with no branch on the
   world.  A masked-out term is [±0.] (weights are finite, masses not
   negative), which leaves a sum that starts at [+0.] as it is, so each
   sum is the float that adding only the unmasked terms gives, and the
   same at any assembly. *)
let enumerate ?(max_vars = max_vars) comp =
  let k = Decompose.nvars comp in
  if k > max_vars then
    invalid_arg
      (Printf.sprintf
         "Exact: a connected component of %d variables exceeds the limit \
          of %d"
         k max_vars);
  let bit v = if v < 0 then 0 else 1 lsl v in
  let head = Array.map bit comp.Decompose.head in
  let body =
    Array.map2
      (fun b1 b2 -> bit b1 lor bit b2)
      comp.Decompose.body1 comp.Decompose.body2
  in
  let weight = comp.Decompose.weight in
  let worlds = 1 lsl k in
  let stored = k <= stored_max_vars in
  let sums = Array.create_float (if stored then worlds else 1) in
  let slot world = if stored then world else 0 in
  let top = Sys.int_size - 1 in
  let eval world =
    let total = ref 0. in
    for f = 0 to Array.length weight - 1 do
      let missing = (body.(f) land lnot world) lor (head.(f) land world) in
      total := !total +. (weight.(f) *. float_of_int ((-missing) lsr top))
    done;
    sums.(slot world) <- !total
  in
  (* Stabilize with the max exponent, as the whole-graph path always did. *)
  let max_e = ref neg_infinity in
  for world = 0 to worlds - 1 do
    eval world;
    max_e := Float.max !max_e sums.(slot world)
  done;
  let max_e = !max_e in
  let mass = Array.make k 0. in
  let z = ref 0. in
  for world = 0 to worlds - 1 do
    if not stored then eval world;
    let p = exp (sums.(slot world) -. max_e) in
    z := !z +. p;
    for v = 0 to k - 1 do
      mass.(v) <- mass.(v) +. (p *. float_of_int ((world lsr v) land 1))
    done
  done;
  let out = Array.make k 0. in
  for v = 0 to k - 1 do
    out.(v) <- mass.(v) /. !z
  done;
  out

let solve_component ?max_vars comp marg =
  let local = enumerate ?max_vars comp in
  Array.iteri (fun v p -> marg.(comp.Decompose.vars.(v)) <- p) local

let marginals ?max_vars c =
  let marg = Array.make (Fgraph.nvars c) 0. in
  (* Components come back in ascending root order — deterministic, though
     they are independent so the order affects nothing but traversal. *)
  Array.iter
    (fun comp -> solve_component ?max_vars comp marg)
    (Decompose.components c);
  marg
