module Fgraph = Factor_graph.Fgraph

type t = { order : int array; width : int }

(* Variable-interaction adjacency of one canonical component: sets of
   local variable indexes; two variables are adjacent when some factor
   mentions both. *)
let adjacency comp =
  let n = Decompose.nvars comp in
  let adj = Array.init n (fun _ -> Hashtbl.create 4) in
  let connect a b =
    if a >= 0 && b >= 0 && a <> b then begin
      Hashtbl.replace adj.(a) b ();
      Hashtbl.replace adj.(b) a ()
    end
  in
  for f = 0 to Decompose.nfactors comp - 1 do
    let h = comp.Decompose.head.(f)
    and b1 = comp.Decompose.body1.(f)
    and b2 = comp.Decompose.body2.(f) in
    connect h b1;
    connect h b2;
    connect b1 b2
  done;
  adj

(* Maximum Cardinality Search (Tarjan & Yannakakis): repeatedly visit the
   unvisited vertex adjacent to the most visited ones.  Bucket queue with
   lazy deletion — O(n + m) — seeded in descending index order so ties in
   a bucket break toward the lowest index among equally stale entries;
   the visit order is a pure function of the canonical component, which
   is all determinism requires. *)
let mcs adj =
  let n = Array.length adj in
  let weight = Array.make n 0 in
  let visited = Array.make n false in
  let buckets = Array.make (n + 1) [] in
  for v = n - 1 downto 0 do
    buckets.(0) <- v :: buckets.(0)
  done;
  let order = Array.make n 0 in
  let maxw = ref 0 in
  for i = 0 to n - 1 do
    let rec pop () =
      match buckets.(!maxw) with
      | v :: rest ->
        buckets.(!maxw) <- rest;
        if visited.(v) || weight.(v) <> !maxw then pop () else v
      | [] ->
        decr maxw;
        pop ()
    in
    let v = pop () in
    visited.(v) <- true;
    order.(i) <- v;
    Hashtbl.iter
      (fun u () ->
        if not visited.(u) then begin
          weight.(u) <- weight.(u) + 1;
          buckets.(weight.(u)) <- u :: buckets.(weight.(u))
        end)
      adj.(v);
    incr maxw
  done;
  order

(* Simulate elimination along [order] with fill-in, tracking the induced
   width (the largest uneliminated neighbourhood met).  With [cap], stop
   as soon as the width provably exceeds it and report [cap + 1] — the
   dispatcher only needs "over the bound", and bailing early keeps the
   cost on huge loopy cores at O(m + n·cap²). *)
let fill_in_width ?cap adj order =
  let n = Array.length adj in
  let cap = match cap with Some c -> c | None -> n in
  let eliminated = Array.make n false in
  let width = ref 0 in
  (try
     Array.iter
       (fun v ->
         let nb =
           Hashtbl.fold
             (fun u () acc -> if eliminated.(u) then acc else u :: acc)
             adj.(v) []
         in
         width := max !width (List.length nb);
         if !width > cap then raise Exit;
         (* Fill: the eliminated vertex's neighbourhood becomes a clique. *)
         List.iter
           (fun a ->
             List.iter
               (fun b ->
                 if a < b then begin
                   Hashtbl.replace adj.(a) b ();
                   Hashtbl.replace adj.(b) a ()
                 end)
               nb)
           nb;
         eliminated.(v) <- true)
       order
   with Exit -> width := cap + 1);
  !width

let analyze ?cap comp =
  let n = Decompose.nvars comp in
  if n = 0 then { order = [||]; width = 0 }
  else begin
    let adj = adjacency comp in
    let visit = mcs adj in
    (* Reverse MCS visit order is a perfect elimination order on chordal
       graphs; on general graphs it is the heuristic whose fill-in
       defines our width estimate. *)
    let order = Array.init n (fun i -> visit.(n - 1 - i)) in
    let width = fill_in_width ?cap adj order in
    { order; width }
  end

let width_of ?cap comp = (analyze ?cap comp).width

(* Degeneracy peel (Matula & Beck): drop every variable with fewer than
   [k] distinct live neighbours, and let each drop lower its neighbours'
   counts, until none is left to drop; what stays is the k-core.  A
   neighbour met through several factors counts once: [seen] stamps the
   variables of one walk over a variable's slots.  Each variable's slots
   are walked at most twice, once to count and once when it is dropped,
   so the peel is O(slots). *)
let core c ~k ~keep =
  let n = Fgraph.nvars c in
  if Array.length keep <> n then invalid_arg "Triangulate.core: keep size";
  let inside = Array.copy keep and degree = Array.make n 0 in
  let queue = Array.make n 0 and tail = ref 0 in
  let drop v =
    inside.(v) <- false;
    queue.(!tail) <- v;
    incr tail
  in
  let seen = Array.make n (-1) and stamp = ref (-1) in
  (* [walk v ~peel] is the number of distinct kept neighbours of [v];
     with [~peel], each of them still inside loses [v] as a neighbour. *)
  let walk v ~peel =
    incr stamp;
    let count = ref 0 in
    for s = c.Fgraph.adj_off.(v) to c.Fgraph.adj_off.(v + 1) - 1 do
      let f = c.Fgraph.adj.(s) in
      for j = 0 to 2 do
        let u =
          if j = 0 then c.Fgraph.head.(f)
          else if j = 1 then c.Fgraph.body1.(f)
          else c.Fgraph.body2.(f)
        in
        if u >= 0 && u <> v && keep.(u) && seen.(u) <> !stamp then begin
          seen.(u) <- !stamp;
          incr count;
          if peel && inside.(u) then begin
            degree.(u) <- degree.(u) - 1;
            if degree.(u) < k then drop u
          end
        end
      done
    done;
    !count
  in
  for v = 0 to n - 1 do
    if keep.(v) then begin
      degree.(v) <- walk v ~peel:false;
      if degree.(v) < k then drop v
    end
  done;
  let head = ref 0 in
  while !head < !tail do
    ignore (walk queue.(!head) ~peel:true);
    incr head
  done;
  inside
