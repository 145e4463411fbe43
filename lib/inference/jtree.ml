module Fgraph = Factor_graph.Fgraph

let default_max_width = 12

(* Allocation guard: a clique of k variables needs a 2^k table. *)
let max_clique_vars = 28

(* --- dense potential tables -----------------------------------------

   A table is a [float array] of 2^k entries over a *scope* — a sorted
   array of k local variable indexes; bit [j] of an entry's index is the
   value of [scope.(j)].  All arithmetic is max-normalized: every
   factor, message, and *running product* is divided by its largest
   entry after each combine, which keeps tables in (0, 1] with an exact
   1.0 present, so no pass can overflow or underflow to an all-zero
   table.  Renormalizing the accumulators matters, not just the inputs:
   a hub clique receiving thousands of conflicting messages decays like
   p^k and would underflow both belief entries to 0.0 (NaN marginals)
   even though each input had max 1.  Normalization constants cancel in
   the final per-variable ratio.

   Normalizing keeps the largest entry at 1, not the smallest above
   zero.  Every entry of every table is positive in exact arithmetic, so
   an entry that rounds below the smallest normal float has lost its
   precision: extreme weights (|w| in the hundreds) or long conflicting
   products do that.  The probability pass then gives up ([Lost]) and
   the component is solved again on log-weights, where products are
   sums and nothing underflows.  Components that never lose precision
   keep the probability pass and its bits. *)

exception Lost

let position scope v =
  let p = ref (-1) in
  Array.iteri (fun j u -> if u = v then p := j) scope;
  !p

let union a b =
  let out = ref [] and i = ref 0 and j = ref 0 in
  let la = Array.length a and lb = Array.length b in
  while !i < la || !j < lb do
    if !j >= lb || (!i < la && a.(!i) < b.(!j)) then begin
      out := a.(!i) :: !out;
      incr i
    end
    else if !i >= la || b.(!j) < a.(!i) then begin
      out := b.(!j) :: !out;
      incr j
    end
    else begin
      out := a.(!i) :: !out;
      incr i;
      incr j
    end
  done;
  Array.of_list (List.rev !out)

(* Every table primitive takes [~log]: [false] works on probabilities,
   [true] on log-weights, where a product is a sum, a sum is a
   log-sum-exp and normalizing subtracts the largest entry.  The flag
   costs one predictable branch per entry; the probability arithmetic
   is the same operations, in the same order, either way. *)

let log_add a b =
  if a = neg_infinity then b
  else if b = neg_infinity then a
  else Float.max a b +. Float.log1p (exp (-.Float.abs (a -. b)))

(* [mult_into ~log acc acc_scope t t_scope] multiplies [t] (whose scope
   is a subset of [acc_scope]) pointwise into [acc]. *)
let mult_into ~log acc acc_scope t t_scope =
  let pos = Array.map (fun v -> position acc_scope v) t_scope in
  for idx = 0 to Array.length acc - 1 do
    let tidx = ref 0 in
    for j = 0 to Array.length pos - 1 do
      if (idx lsr pos.(j)) land 1 = 1 then tidx := !tidx lor (1 lsl j)
    done;
    if log then acc.(idx) <- acc.(idx) +. t.(!tidx)
    else begin
      let x = acc.(idx) *. t.(!tidx) in
      if not (x >= Float.min_float) then raise_notrace Lost;
      acc.(idx) <- x
    end
  done

let normalize ~log t =
  if log then begin
    let m = Array.fold_left Float.max neg_infinity t in
    Array.iteri (fun i x -> t.(i) <- x -. m) t
  end
  else begin
    let m = ref 0. in
    Array.iter (fun x -> if x > !m then m := x) t;
    for i = 0 to Array.length t - 1 do
      let x = t.(i) /. !m in
      if not (x >= Float.min_float) then raise_notrace Lost;
      t.(i) <- x
    done
  end

let zero ~log = if log then neg_infinity else 0.
let one ~log = if log then 0. else 1.

(* Sum variable [scope.(p)] out of [t]; returns the reduced scope and
   table. *)
let sum_out ~log scope t p =
  let k = Array.length scope in
  let out = Array.make (1 lsl (k - 1)) (zero ~log) in
  let low = (1 lsl p) - 1 in
  for idx = 0 to Array.length t - 1 do
    let o = idx land low lor ((idx lsr (p + 1)) lsl p) in
    if log then out.(o) <- log_add out.(o) t.(idx)
    else out.(o) <- out.(o) +. t.(idx)
  done;
  (Array.init (k - 1) (fun j -> if j < p then scope.(j) else scope.(j + 1)), out)

(* Marginalize [t] onto [sub] (a subset of [scope]). *)
let project ~log scope t sub =
  let pos = Array.map (fun v -> position scope v) sub in
  let out = Array.make (1 lsl Array.length sub) (zero ~log) in
  for idx = 0 to Array.length t - 1 do
    let o = ref 0 in
    for j = 0 to Array.length pos - 1 do
      if (idx lsr pos.(j)) land 1 = 1 then o := !o lor (1 lsl j)
    done;
    if log then out.(!o) <- log_add out.(!o) t.(idx)
    else out.(!o) <- out.(!o) +. t.(idx)
  done;
  out

(* P(v = 1) from a table over [v] alone. *)
let odds ~log t =
  if log then 1. /. (1. +. exp (t.(0) -. t.(1)))
  else t.(1) /. (t.(0) +. t.(1))

(* Potential table of one factor: exp(w) when satisfied, 1 otherwise
   (the log-linear measure of equation (3)), max-normalized. *)
let factor_table ~log comp f =
  let h = comp.Decompose.head.(f)
  and b1 = comp.Decompose.body1.(f)
  and b2 = comp.Decompose.body2.(f)
  and w = comp.Decompose.weight.(f)
  and sing = comp.Decompose.singleton.(f) in
  let vars = List.filter (fun v -> v >= 0) [ h; b1; b2 ] in
  let scope = Array.of_list (List.sort_uniq compare vars) in
  let value idx v = (idx lsr position scope v) land 1 = 1 in
  let ew =
    if log then w
    else begin
      let ew = exp w in
      if not (ew >= Float.min_float && ew < infinity) then raise_notrace Lost;
      ew
    end
  and unsat = one ~log in
  let t =
    Array.init
      (1 lsl Array.length scope)
      (fun idx ->
        let sat =
          if sing then value idx h
          else
            let body_true =
              (b1 < 0 || value idx b1) && (b2 < 0 || value idx b2)
            in
            (not body_true) || value idx h
        in
        if sat then ew else unsat)
  in
  normalize ~log t;
  (scope, t)

(* --- clique-tree propagation ----------------------------------------

   Bucket elimination along the given order defines the clique tree:
   clique [i] gathers the original factors whose earliest-eliminated
   variable is [order.(i)] plus the messages earlier cliques sent here,
   sums [order.(i)] out, and passes the result to the clique of the
   earliest-eliminated variable remaining in scope (its parent).  The
   backward pass sends each child the marginalized product of everything
   outside its subtree, after which clique [i]'s belief is proportional
   to the joint marginal over its scope — one upward and one downward
   sweep yield every single-variable marginal.  Purely deterministic:
   no RNG, and the traversal is a function of the canonical component
   and the elimination order alone. *)

let propagate ~log order comp =
  let n = Decompose.nvars comp in
  if n = 0 then [||]
  else begin
    let step = Array.make n 0 in
    Array.iteri (fun i v -> step.(v) <- i) order;
    (* Original factors, bucketed at their earliest-eliminated variable
       (consed in reverse so each bucket keeps canonical factor order). *)
    let bucket = Array.make n [] in
    for f = Decompose.nfactors comp - 1 downto 0 do
      let scope, t = factor_table ~log comp f in
      let tgt =
        Array.fold_left
          (fun best v -> if step.(v) < step.(best) then v else best)
          scope.(0) scope
      in
      bucket.(step.(tgt)) <- (scope, t) :: bucket.(step.(tgt))
    done;
    let clique_scope = Array.make n [||] in
    let clique_psi = Array.make n [||] in
    let inbox = Array.make n [] in (* (sender step, sep, msg), receipt order *)
    let up_sep = Array.make n [||] in
    (* Upward (elimination) pass. *)
    for i = 0 to n - 1 do
      let v = order.(i) in
      let kids = List.rev inbox.(i) in
      inbox.(i) <- kids;
      let scope =
        List.fold_left
          (fun acc (_, sep, _) -> union acc sep)
          (List.fold_left (fun acc (s, _) -> union acc s) [| v |] bucket.(i))
          kids
      in
      if Array.length scope > max_clique_vars then
        invalid_arg
          (Printf.sprintf
             "Jtree: a clique of %d variables exceeds the limit of %d"
             (Array.length scope) max_clique_vars);
      let psi = Array.make (1 lsl Array.length scope) (one ~log) in
      List.iter
        (fun (s, t) ->
          mult_into ~log psi scope t s;
          normalize ~log psi)
        bucket.(i);
      clique_scope.(i) <- scope;
      clique_psi.(i) <- psi;
      let b = Array.copy psi in
      List.iter
        (fun (_, sep, m) ->
          mult_into ~log b scope m sep;
          normalize ~log b)
        kids;
      let sep, m =
        sum_out ~log scope b (position scope v)
      in
      up_sep.(i) <- sep;
      if Array.length sep > 0 then begin
        normalize ~log m;
        let u =
          Array.fold_left
            (fun best w -> if step.(w) < step.(best) then w else best)
            sep.(0) sep
        in
        inbox.(step.(u)) <- (i, sep, m) :: inbox.(step.(u))
      end
    done;
    (* Downward pass: [down.(i)] is the product of everything outside
       clique [i]'s subtree, marginalized onto its upward separator. *)
    let down = Array.make n [| one ~log |] in
    let marg = Array.make n 0. in
    for i = n - 1 downto 0 do
      let scope = clique_scope.(i) in
      let kids = Array.of_list inbox.(i) in
      let nk = Array.length kids in
      let base = Array.copy clique_psi.(i) in
      mult_into ~log base scope down.(i) up_sep.(i);
      normalize ~log base;
      (* Prefix/suffix products make every except-one combination O(nk)
         tables instead of O(nk²) — star-shaped cliques receive
         thousands of messages.  Each accumulator is renormalized per
         step; any per-table scale cancels in the belief ratio and in
         the projected-then-normalized down messages. *)
      let pre = Array.make (nk + 1) base in
      for t = 0 to nk - 1 do
        let _, sep, m = kids.(t) in
        let next = Array.copy pre.(t) in
        mult_into ~log next scope m sep;
        normalize ~log next;
        pre.(t + 1) <- next
      done;
      let suf = Array.make (nk + 1) [||] in
      suf.(nk) <- Array.make (Array.length base) (one ~log);
      for t = nk - 1 downto 0 do
        let _, sep, m = kids.(t) in
        let next = Array.copy suf.(t + 1) in
        mult_into ~log next scope m sep;
        normalize ~log next;
        suf.(t) <- next
      done;
      (* Belief = psi × down × all child messages. *)
      let belief = pre.(nk) in
      let v = order.(i) in
      marg.(v) <- odds ~log (project ~log scope belief [| v |]);
      Array.iteri
        (fun t (sender, sep, _) ->
          let outside = Array.copy pre.(t) in
          mult_into ~log outside scope suf.(t + 1) scope;
          let d = project ~log scope outside sep in
          normalize ~log d;
          down.(sender) <- d)
        kids
    done;
    marg
  end

let solve ?order comp =
  let order =
    match order with
    | Some o -> o
    | None -> (Triangulate.analyze comp).Triangulate.order
  in
  try propagate ~log:false order comp
  with Lost -> propagate ~log:true order comp

let marginals ?(max_width = default_max_width) c =
  let marg = Array.make (Fgraph.nvars c) 0. in
  Array.iter
    (fun comp ->
      let tri = Triangulate.analyze ~cap:max_width comp in
      if tri.Triangulate.width > max_width then
        invalid_arg
          (Printf.sprintf
             "Jtree: component induced width exceeds the bound of %d"
             max_width);
      let local = solve ~order:tri.Triangulate.order comp in
      Array.iteri
        (fun v p -> marg.(comp.Decompose.vars.(v)) <- p)
        local)
    (Decompose.components c);
  marg
