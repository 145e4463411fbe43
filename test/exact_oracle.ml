(* Test oracles for the exact enumerator ([Inference.Exact.enumerate]):
   the two-pass enumerator it replaced, which sets a bool array per world
   and sums the satisfied factors' weights over it twice, and the
   whole-graph log partition function.  The bitmask enumerator must
   reproduce [enumerate] bit for bit. *)

module Fgraph = Factor_graph.Fgraph
module Decompose = Inference.Decompose

(* Local log-weight of one assignment: the sum of satisfied factors'
   weights, visiting factors in canonical order. *)
let sum_weights comp a =
  let total = ref 0. in
  for f = 0 to Array.length comp.Decompose.head - 1 do
    let sat =
      if comp.Decompose.singleton.(f) then a.(comp.Decompose.head.(f))
      else
        let body_true =
          (comp.Decompose.body1.(f) < 0 || a.(comp.Decompose.body1.(f)))
          && (comp.Decompose.body2.(f) < 0 || a.(comp.Decompose.body2.(f)))
        in
        (not body_true) || a.(comp.Decompose.head.(f))
    in
    if sat then total := !total +. comp.Decompose.weight.(f)
  done;
  !total

(* P(X=1) per local variable of one canonical component. *)
let enumerate comp =
  let k = Decompose.nvars comp in
  let a = Array.make k false in
  let each body =
    for world = 0 to (1 lsl k) - 1 do
      for v = 0 to k - 1 do
        a.(v) <- (world lsr v) land 1 = 1
      done;
      body ()
    done
  in
  let max_e = ref neg_infinity in
  each (fun () -> max_e := Float.max !max_e (sum_weights comp a));
  let max_e = !max_e in
  let mass = Array.make k 0. in
  let z = ref 0. in
  each (fun () ->
      let p = exp (sum_weights comp a -. max_e) in
      z := !z +. p;
      for v = 0 to k - 1 do
        if a.(v) then mass.(v) <- mass.(v) +. p
      done);
  Array.map (fun m -> m /. !z) mass

(* [log Z] of a whole compiled graph by enumerating its 2^n worlds. *)
let log_partition c =
  let n = Fgraph.nvars c in
  if n > Inference.Exact.max_vars then
    invalid_arg "Exact_oracle.log_partition: too many variables";
  let assignment = Array.make n false in
  let fold_worlds k =
    for world = 0 to (1 lsl n) - 1 do
      for v = 0 to n - 1 do
        assignment.(v) <- (world lsr v) land 1 = 1
      done;
      k ()
    done
  in
  let sum_weights () =
    let total = ref 0. in
    for f = 0 to Array.length c.Fgraph.head - 1 do
      if Fgraph.satisfied c f assignment then
        total := !total +. c.Fgraph.fweight.(f)
    done;
    !total
  in
  let max_e = ref neg_infinity in
  fold_worlds (fun () -> max_e := Float.max !max_e (sum_weights ()));
  let z = ref 0. in
  fold_worlds (fun () -> z := !z +. exp (sum_weights () -. !max_e));
  !max_e +. log !z
