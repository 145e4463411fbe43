module Fgraph = Factor_graph.Fgraph

type component = {
  root : int;
  factors : int array;
  vars : int array;
  head : int array;
  body1 : int array;
  body2 : int array;
  weight : float array;
  singleton : bool array;
}

let nvars comp = Array.length comp.vars
let nfactors comp = Array.length comp.factors

(* Union-find over dense variables; two variables share a component when
   some factor mentions both. *)
let roots c =
  let n = Fgraph.nvars c in
  let parent = Array.init n Fun.id in
  let rec find v =
    if parent.(v) = v then v
    else begin
      let r = find parent.(v) in
      parent.(v) <- r;
      r
    end
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then parent.(max ra rb) <- find (min ra rb)
  in
  let m = Array.length c.Fgraph.head in
  for f = 0 to m - 1 do
    let h = c.Fgraph.head.(f) in
    if c.Fgraph.body1.(f) >= 0 then union h c.Fgraph.body1.(f);
    if c.Fgraph.body2.(f) >= 0 then union h c.Fgraph.body2.(f)
  done;
  find

type partition = {
  roots : int array;
  members : int array array;
  comp_of_var : int array;
}

(* A root is its component's smallest variable, so an ascending scan
   meets every root before the rest of its component and numbers the
   components in ascending root order. *)
let partition c =
  let find = roots c in
  let n = Fgraph.nvars c in
  let comp_of_var = Array.make n 0 in
  let roots = ref [] and nc = ref 0 in
  for v = 0 to n - 1 do
    let r = find v in
    if r = v then begin
      comp_of_var.(v) <- !nc;
      roots := v :: !roots;
      incr nc
    end
    else comp_of_var.(v) <- comp_of_var.(r)
  done;
  let nc = !nc in
  let m = Array.length c.Fgraph.head in
  let counts = Array.make nc 0 in
  for f = 0 to m - 1 do
    let i = comp_of_var.(c.Fgraph.head.(f)) in
    counts.(i) <- counts.(i) + 1
  done;
  let members = Array.map (fun k -> Array.make k 0) counts in
  Array.fill counts 0 nc 0;
  for f = 0 to m - 1 do
    let i = comp_of_var.(c.Fgraph.head.(f)) in
    members.(i).(counts.(i)) <- f;
    counts.(i) <- counts.(i) + 1
  done;
  { roots = Array.of_list (List.rev !roots); members; comp_of_var }

let factor_key c f =
  let id v = if v < 0 then Fgraph.null else c.Fgraph.var_ids.(v) in
  ( id c.Fgraph.head.(f),
    id c.Fgraph.body1.(f),
    id c.Fgraph.body2.(f),
    c.Fgraph.fweight.(f) )

let cmp_key (a1, a2, a3, aw) (b1, b2, b3, bw) =
  let c = Int.compare a1 b1 in
  if c <> 0 then c
  else
    let c = Int.compare a2 b2 in
    if c <> 0 then c
    else
      let c = Int.compare a3 b3 in
      if c <> 0 then c else Float.compare aw bw

(* Canonicalize one root's factor list: sort by the fact-id row
   [(I1, I2, I3, w)] and number the variables by first mention (head
   before body) in that order — the numbering [Fgraph.compile] would
   assign to the canonically ordered subgraph.  Downstream solvers then
   visit the same values in the same order regardless of how the graph
   was assembled, which is what keeps a locally grounded neighbourhood
   bit-identical to the full closure (see {!Exact}). *)
let canonicalize c root fs =
  let fs =
    List.sort
      (fun a b -> cmp_key (factor_key c a) (factor_key c b))
      (Array.to_list fs)
  in
  let lvar = Hashtbl.create 16 in
  let globals = ref [] in
  let intern v =
    if v < 0 then -1
    else
      match Hashtbl.find_opt lvar v with
      | Some i -> i
      | None ->
        let i = Hashtbl.length lvar in
        Hashtbl.add lvar v i;
        globals := v :: !globals;
        i
  in
  let m = List.length fs in
  let factors = Array.make m 0
  and lh = Array.make m 0
  and lb1 = Array.make m (-1)
  and lb2 = Array.make m (-1)
  and lw = Array.make m 0.
  and lsing = Array.make m false in
  List.iteri
    (fun i f ->
      factors.(i) <- f;
      lh.(i) <- intern c.Fgraph.head.(f);
      lb1.(i) <- intern c.Fgraph.body1.(f);
      lb2.(i) <- intern c.Fgraph.body2.(f);
      lw.(i) <- c.Fgraph.fweight.(f);
      lsing.(i) <- c.Fgraph.singleton.(f))
    fs;
  {
    root;
    factors;
    vars = Array.of_list (List.rev !globals);
    head = lh;
    body1 = lb1;
    body2 = lb2;
    weight = lw;
    singleton = lsing;
  }

let canonical c p i = canonicalize c p.roots.(i) p.members.(i)

let components c =
  let p = partition c in
  Array.init (Array.length p.roots) (canonical c p)

(* Every variable is mentioned by at least one factor of its component
   ([Fgraph.compile] interns them from factors), so the partition alone
   gives the sizes. *)
let sizes p =
  let sizes = Array.make (Array.length p.roots) 0 in
  Array.iter (fun i -> sizes.(i) <- sizes.(i) + 1) p.comp_of_var;
  sizes

let max_size c = Array.fold_left max 0 (sizes (partition c))
