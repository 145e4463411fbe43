(* Loopy belief propagation (sum-product), a test oracle: damped,
   flooding-schedule BP specialized to ProbKB's factor kinds (singleton
   priors and ground Horn clauses of one or two body atoms).  On acyclic
   ground graphs it is exact, so test_hybrid cross-checks junction-tree
   elimination against it on a chain far past the enumeration cap.
   [marginals ?options c] is the estimate of P(X = 1) per dense variable
   with its convergence statistics. *)

module Fgraph = Factor_graph.Fgraph

type options = { max_iterations : int; damping : float; tolerance : float }

let default_options = { max_iterations = 100; damping = 0.3; tolerance = 1e-7 }

type stats = { iterations : int; converged : bool; max_delta : float }

(* Per-factor local structure: the (distinct) variables of the factor and,
   for each of head/body1/body2, which local slot carries its value. *)
type flocal = {
  vars : int array;  (* dense variable ids, ≤ 3 *)
  head_slot : int;
  b1_slot : int;  (* -1 if absent *)
  b2_slot : int;
  weight : float;
  singleton : bool;
}

let locals c =
  Array.init (Array.length c.Fgraph.head) (fun f ->
      let h = c.Fgraph.head.(f)
      and b1 = c.Fgraph.body1.(f)
      and b2 = c.Fgraph.body2.(f) in
      let vars = ref [ h ] in
      if b1 >= 0 && not (List.mem b1 !vars) then vars := !vars @ [ b1 ];
      if b2 >= 0 && not (List.mem b2 !vars) then vars := !vars @ [ b2 ];
      let vars = Array.of_list !vars in
      let slot v =
        if v < 0 then -1
        else
          let rec go i = if vars.(i) = v then i else go (i + 1) in
          go 0
      in
      {
        vars;
        head_slot = slot h;
        b1_slot = slot b1;
        b2_slot = slot b2;
        weight = c.Fgraph.fweight.(f);
        singleton = c.Fgraph.singleton.(f);
      })

let potential fl assignment =
  (* [assignment] holds the slot values as bits of an int. *)
  let value slot = slot >= 0 && (assignment lsr slot) land 1 = 1 in
  let sat =
    if fl.singleton then value fl.head_slot
    else
      let body_true =
        (fl.b1_slot < 0 || value fl.b1_slot)
        && (fl.b2_slot < 0 || value fl.b2_slot)
      in
      (not body_true) || value fl.head_slot
  in
  if sat then exp fl.weight else 1.

let marginals ?(options = default_options) c =
  let nv = Fgraph.nvars c in
  let fls = locals c in
  let nf = Array.length fls in
  (* Edges: one per (factor, slot). *)
  let edge_off = Array.make (nf + 1) 0 in
  for f = 0 to nf - 1 do
    edge_off.(f + 1) <- edge_off.(f) + Array.length fls.(f).vars
  done;
  let ne = edge_off.(nf) in
  let edge_var = Array.make ne 0 in
  for f = 0 to nf - 1 do
    Array.iteri (fun s v -> edge_var.(edge_off.(f) + s) <- v) fls.(f).vars
  done;
  (* Variable -> incident edges. *)
  let var_edges = Array.make nv [] in
  for e = ne - 1 downto 0 do
    var_edges.(edge_var.(e)) <- e :: var_edges.(edge_var.(e))
  done;
  (* Messages in the linear domain, normalized to sum 1.
     f2v.(2e) = message value for x=0, f2v.(2e+1) for x=1. *)
  let f2v = Array.make (2 * ne) 0.5 in
  let v2f = Array.make (2 * ne) 0.5 in
  let iterations = ref 0 in
  let converged = ref false in
  let max_delta = ref infinity in
  while (not !converged) && !iterations < options.max_iterations do
    incr iterations;
    (* v -> f: product of the other factors' messages to v. *)
    for v = 0 to nv - 1 do
      List.iter
        (fun e ->
          let p0 = ref 1. and p1 = ref 1. in
          List.iter
            (fun e' ->
              if e' <> e then begin
                p0 := !p0 *. f2v.(2 * e');
                p1 := !p1 *. f2v.((2 * e') + 1)
              end)
            var_edges.(v);
          let z = !p0 +. !p1 in
          if z > 0. then begin
            v2f.(2 * e) <- !p0 /. z;
            v2f.((2 * e) + 1) <- !p1 /. z
          end)
        var_edges.(v)
    done;
    (* f -> v: marginalize the potential against the other slots'
       incoming messages. *)
    let delta = ref 0. in
    for f = 0 to nf - 1 do
      let fl = fls.(f) in
      let k = Array.length fl.vars in
      for s = 0 to k - 1 do
        let m0 = ref 0. and m1 = ref 0. in
        for a = 0 to (1 lsl k) - 1 do
          let weight = ref (potential fl a) in
          for s' = 0 to k - 1 do
            if s' <> s then begin
              let bit = (a lsr s') land 1 in
              weight := !weight *. v2f.((2 * (edge_off.(f) + s')) + bit)
            end
          done;
          if (a lsr s) land 1 = 0 then m0 := !m0 +. !weight
          else m1 := !m1 +. !weight
        done;
        let z = !m0 +. !m1 in
        if z > 0. then begin
          let e = edge_off.(f) + s in
          let n0 =
            (options.damping *. f2v.(2 * e))
            +. ((1. -. options.damping) *. (!m0 /. z))
          in
          let n1 =
            (options.damping *. f2v.((2 * e) + 1))
            +. ((1. -. options.damping) *. (!m1 /. z))
          in
          delta := Float.max !delta (Float.abs (n0 -. f2v.(2 * e)));
          delta := Float.max !delta (Float.abs (n1 -. f2v.((2 * e) + 1)));
          f2v.(2 * e) <- n0;
          f2v.((2 * e) + 1) <- n1
        end
      done
    done;
    max_delta := !delta;
    if !delta < options.tolerance then converged := true
  done;
  let beliefs =
    Array.init nv (fun v ->
        let p0 = ref 1. and p1 = ref 1. in
        List.iter
          (fun e ->
            p0 := !p0 *. f2v.(2 * e);
            p1 := !p1 *. f2v.((2 * e) + 1))
          var_edges.(v);
        let z = !p0 +. !p1 in
        if z > 0. then !p1 /. z else 0.5)
  in
  ( beliefs,
    { iterations = !iterations; converged = !converged; max_delta = !max_delta }
  )
