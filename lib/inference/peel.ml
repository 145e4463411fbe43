module Fgraph = Factor_graph.Fgraph

type t = {
  core : Fgraph.compiled;
  core_of : int array;
      (* input variable → core variable; -1 when peeled or outside the
         subgraph *)
  order : int array;  (* eliminated variables, in elimination order *)
  scope : int array;
      (* two per elimination: its scope's variables, ascending, padded
         with -1 *)
  cond : float array;
      (* four per elimination: P(v = 1 | S = s) at [s = s₁ + 2·s₂] *)
  pair_of : int array;
      (* per elimination onto two variables: the pair table it folded
         into; -1 otherwise *)
  consumed_by : int array;
      (* per pair table: the elimination that took it as its factor, or
         -1 when it survived into the core *)
  rank : int array;  (* per surviving pair table: its index in [pairs] *)
  pairs : (int * int) array;
}

let sigmoid d = 1. /. (1. +. exp (-.d))
let log_add a b = Float.max a b +. Float.log1p (exp (-.Float.abs (a -. b)))

let run ?keep c =
  let n = Fgraph.nvars c and m = Array.length c.Fgraph.head in
  let kept f = match keep with Some k -> k.(f) | None -> true in
  let head = c.Fgraph.head
  and body1 = c.Fgraph.body1
  and body2 = c.Fgraph.body2 in
  (* [others f v each] visits the distinct variables of clause [f] other
     than [v]. *)
  let others f v each =
    let h = head.(f) and b1 = body1.(f) and b2 = body2.(f) in
    if h <> v then each h;
    if b1 >= 0 && b1 <> h && b1 <> v then each b1;
    if b2 >= 0 && b2 <> h && b2 <> b1 && b2 <> v then each b2
  in
  (* The log-weight clause [f] adds under [value]. *)
  let clause_weight f value =
    let b1 = body1.(f) and b2 = body2.(f) in
    if (b1 < 0 || value b1) && (b2 < 0 || value b2) && not (value head.(f))
    then 0.
    else c.Fgraph.fweight.(f)
  in
  (* [member.(v)]: a kept factor mentions [v].  [u.(v)]: [v]'s log-odds,
     priors and folded unary terms.  [live.(f)]: kept clause [f] is over
     two or three variables and is not yet eliminated.  [deg.(v)]: [v]'s
     live factors, pair tables included.  [two] binds [a·n + b] to each
     clause over exactly [a < b]. *)
  let member = Array.make n false and u = Array.make n 0. in
  let live = Array.make m false and deg = Array.make n 0 in
  let two = Hashtbl.create 1024 in
  for f = 0 to m - 1 do
    if kept f then begin
      let h = head.(f) in
      member.(h) <- true;
      if c.Fgraph.singleton.(f) then u.(h) <- u.(h) +. c.Fgraph.fweight.(f)
      else begin
        let xs = ref [] in
        others f h (fun x -> xs := x :: !xs);
        List.iter (fun x -> member.(x) <- true) !xs;
        if !xs <> [] then begin
          live.(f) <- true;
          List.iter (fun x -> deg.(x) <- deg.(x) + 1) (h :: !xs)
        end;
        match !xs with
        | [ x ] -> Hashtbl.add two ((min x h * n) + max x h) f
        | _ -> ()
      end
    end
  done;
  (* Pair tables, at most one per elimination: table [p] is on
     [pa.(p) < pb.(p)], and [tab.(4p + s)] is its log-weight at
     [s = bit a + 2·bit b]. *)
  let nm = Array.fold_left (fun k b -> if b then k + 1 else k) 0 member in
  let npairs = ref 0 in
  let pa = Array.make nm 0 and pb = Array.make nm 0 in
  let tab = Array.make (4 * nm) 0. in
  let pair_live = Array.make nm false and consumed_by = Array.make nm (-1) in
  let pair_on = Hashtbl.create 1024 and pairs_of = Array.make n [] in
  let order = Array.make nm 0 and scope = Array.make (2 * nm) (-1) in
  let cond = Array.make (4 * nm) 0. and pair_of = Array.make nm (-1) in
  let ne = ref 0 in
  (* A variable's count of live factors never rises: an elimination
     kills its factor and adds at most one pair table, on the scope. *)
  let queued = Array.make n false and queue = Queue.create () in
  let enqueue v =
    if member.(v) && (not queued.(v)) && deg.(v) <= 1 then begin
      queued.(v) <- true;
      Queue.push v queue
    end
  in
  for v = 0 to n - 1 do
    enqueue v
  done;
  let phi = Array.make 4 0. in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    let e = !ne in
    incr ne;
    order.(e) <- v;
    (* [v]'s one live factor, if any: an input clause or a pair table.
       It dies here; its other variables are the scope S. *)
    let clause = ref (-1) and pair = ref (-1) in
    if deg.(v) > 0 then begin
      for k = c.Fgraph.adj_off.(v + 1) - 1 downto c.Fgraph.adj_off.(v) do
        if live.(c.Fgraph.adj.(k)) then clause := c.Fgraph.adj.(k)
      done;
      if !clause < 0 then pair := List.find (Array.get pair_live) pairs_of.(v)
    end;
    let sv = ref [] in
    if !clause >= 0 then begin
      live.(!clause) <- false;
      others !clause v (fun x -> sv := x :: !sv)
    end
    else if !pair >= 0 then begin
      let p = !pair in
      pair_live.(p) <- false;
      Hashtbl.remove pair_on ((pa.(p) * n) + pb.(p));
      consumed_by.(p) <- e;
      sv := [ (if pa.(p) = v then pb.(p) else pa.(p)) ]
    end;
    let s1, s2 =
      match List.sort compare !sv with
      | [] -> (-1, -1)
      | [ x ] -> (x, -1)
      | x :: y :: _ -> (x, y)
    in
    scope.(2 * e) <- s1;
    scope.((2 * e) + 1) <- s2;
    List.iter (fun x -> deg.(x) <- deg.(x) - 1) !sv;
    (* [l₀], [l₁] per assignment [s] of S; [factor xv] reads [v] as
       [xv]. *)
    let width = List.length !sv in
    for s = 0 to (1 lsl width) - 1 do
      let bit x = if x = s1 then s land 1 = 1 else s land 2 = 2 in
      let factor xv =
        if !clause >= 0 then
          clause_weight !clause (fun x -> if x = v then xv else bit x)
        else if !pair >= 0 then
          let p = !pair in
          let b x = Bool.to_int (if x = v then xv else bit x) in
          tab.((4 * p) + b pa.(p) + (2 * b pb.(p)))
        else 0.
      in
      let l0 = factor false and l1 = factor true +. u.(v) in
      cond.((4 * e) + s) <- sigmoid (l1 -. l0);
      phi.(s) <- log_add l0 l1
    done;
    (match width with
    | 0 -> ()
    | 1 -> u.(s1) <- u.(s1) +. (phi.(1) -. phi.(0))
    | _ ->
      let key = (s1 * n) + s2 in
      let p =
        match Hashtbl.find_opt pair_on key with
        | Some p -> p
        | None ->
          let p = !npairs in
          incr npairs;
          pa.(p) <- s1;
          pb.(p) <- s2;
          pair_live.(p) <- true;
          Hashtbl.add pair_on key p;
          pairs_of.(s1) <- p :: pairs_of.(s1);
          pairs_of.(s2) <- p :: pairs_of.(s2);
          deg.(s1) <- deg.(s1) + 1;
          deg.(s2) <- deg.(s2) + 1;
          (* Input clauses over S merge into the table: left apart, they
             would keep both variables at two factors, never peeled. *)
          List.iter
            (fun f ->
              if live.(f) then begin
                live.(f) <- false;
                deg.(s1) <- deg.(s1) - 1;
                deg.(s2) <- deg.(s2) - 1;
                for s = 0 to 3 do
                  tab.((4 * p) + s) <-
                    tab.((4 * p) + s)
                    +. clause_weight f (fun x ->
                           if x = s1 then s land 1 = 1 else s land 2 = 2)
                done
              end)
            (List.rev (Hashtbl.find_all two key));
          p
      in
      pair_of.(e) <- p;
      for s = 0 to 3 do
        tab.((4 * p) + s) <- tab.((4 * p) + s) +. (phi.(s) -. phi.(0))
      done);
    List.iter enqueue !sv
  done;
  (* The core graph: surviving clauses, pair tables, priors. *)
  let id v = c.Fgraph.var_ids.(v) in
  let g = Fgraph.create () in
  let var x = if x >= 0 then Some (id x) else None in
  for f = 0 to m - 1 do
    if live.(f) then
      Fgraph.add_clause g ~i1:(id head.(f)) ?i2:(var body1.(f))
        ?i3:(var body2.(f)) ~w:c.Fgraph.fweight.(f) ()
  done;
  let rank = Array.make !npairs (-1) and pairs = ref [] and kept = ref 0 in
  for p = 0 to !npairs - 1 do
    if pair_live.(p) then begin
      let t s = tab.((4 * p) + s) in
      let alpha = t 1 -. t 0 and beta = t 2 -. t 0 in
      let gamma = t 3 -. t 1 -. t 2 +. t 0 in
      Fgraph.add_clause g ~i1:(id pb.(p)) ~i2:(id pa.(p)) ~w:gamma ();
      u.(pa.(p)) <- u.(pa.(p)) +. (alpha +. gamma);
      u.(pb.(p)) <- u.(pb.(p)) +. beta;
      rank.(p) <- !kept;
      incr kept;
      pairs := (pa.(p), pb.(p)) :: !pairs
    end
  done;
  let peeled = Array.make n false in
  for e = 0 to !ne - 1 do
    peeled.(order.(e)) <- true
  done;
  for v = 0 to n - 1 do
    if member.(v) && not peeled.(v) then
      Fgraph.add_singleton g ~i:(id v) ~w:u.(v)
  done;
  let core = Fgraph.compile g in
  let core_of =
    Array.init n (fun v ->
        if member.(v) && not peeled.(v) then
          Hashtbl.find core.Fgraph.var_of_id (id v)
        else -1)
  in
  {
    core;
    core_of;
    order = Array.sub order 0 !ne;
    scope = Array.sub scope 0 (2 * !ne);
    cond = Array.sub cond 0 (4 * !ne);
    pair_of = Array.sub pair_of 0 !ne;
    consumed_by = Array.sub consumed_by 0 !npairs;
    rank;
    pairs =
      Array.of_list
        (List.rev_map (fun (a, b) -> (core_of.(a), core_of.(b))) !pairs);
  }

let core t = t.core
let peeled t = Array.length t.order
let pairs t = t.pairs

let expand t ~core ~joints marg =
  Array.iteri (fun v cv -> if cv >= 0 then marg.(v) <- core.(cv)) t.core_of;
  for e = Array.length t.order - 1 downto 0 do
    let c s = t.cond.((4 * e) + s) in
    let s1 = t.scope.(2 * e) and s2 = t.scope.((2 * e) + 1) in
    (* The mean of [c] under the cells of P(S = s), divided by their
       sum: with non-negative cells, rounding keeps it in [0, 1]. *)
    marg.(t.order.(e)) <-
      (if s1 < 0 then c 0
       else if s2 < 0 then
         let p1 = marg.(s1) in
         let p0 = 1. -. p1 in
         ((p0 *. c 0) +. (p1 *. c 1)) /. (p0 +. p1)
       else
         let pa = marg.(s1) and pb = marg.(s2) in
         let p = t.pair_of.(e) in
         let j =
           if t.rank.(p) >= 0 then joints.(t.rank.(p))
           else
             let first = t.consumed_by.(p) in
             t.cond.((4 * first) + 1) *. marg.(t.scope.(2 * first))
         in
         let j =
           Float.min (Float.min pa pb)
             (Float.max (Float.max 0. (pa +. pb -. 1.)) j)
         in
         let p10 = pa -. j and p01 = pb -. j in
         (* Non-negative in exact arithmetic once [j] is clamped. *)
         let p00 = Float.max 0. (1. -. pa -. p01) in
         ((p00 *. c 0) +. (p10 *. c 1) +. (p01 *. c 2) +. (j *. c 3))
         /. (p00 +. p10 +. p01 +. j))
  done
