module Gamma = Kb.Gamma
module Funcon = Kb.Funcon
module Clause = Mln.Clause
module Pattern = Mln.Pattern

type config = {
  scale : float;
  seed : int;
  n_entities : int option;
  n_classes : int option;
  n_relations : int option;
  n_facts : int option;
  n_rules : int option;
  relation_alpha : float;
  rule_body_alpha : float;
  entity_alpha : float;
  class_alpha : float;
  functional_fraction : float;
  head_reuse_prob : float;
  pattern_mix : float array;
}

let default_config =
  {
    scale = 1.0;
    seed = 20140622;
    n_entities = None;
    n_classes = None;
    n_relations = None;
    n_facts = None;
    n_rules = None;
    relation_alpha = 0.9;
    rule_body_alpha = 0.65;
    entity_alpha = 0.6;
    class_alpha = 0.8;
    functional_fraction = 0.125;
    head_reuse_prob = 0.7;
    (* Sherlock's six shapes; length-2 bodies dominate. *)
    pattern_mix = [| 0.22; 0.10; 0.20; 0.22; 0.11; 0.15 |];
  }

(* Table 2 of the paper. *)
let paper_entities = 277_216
let paper_relations = 82_768
let paper_facts = 407_247
let paper_rules = 30_912

let sizes config =
  let scaled base = max 1 (int_of_float (Float.round (config.scale *. float_of_int base))) in
  let pick o d = Option.value o ~default:d in
  let n_entities = pick config.n_entities (max 50 (scaled paper_entities)) in
  let n_classes =
    pick config.n_classes
      (max 6 (int_of_float (Float.round (512. *. sqrt config.scale))))
  in
  let n_relations = pick config.n_relations (max 10 (scaled paper_relations)) in
  let n_facts = pick config.n_facts (scaled paper_facts) in
  let n_rules = pick config.n_rules (scaled paper_rules) in
  (n_entities, n_classes, n_relations, n_facts, n_rules)

type t = {
  config : config;
  kb : Gamma.t;
  n_relations : int;
  dom : int array;
  rng_cls : int array;
  by_class : int array array;
  cls_zipf : Zipf.t array; (* per class, over its entity array *)
  rel_zipf : Zipf.t;
  rule_body_zipf : Zipf.t;
  by_domain : int array array; (* class -> relations with that domain *)
  by_range : int array array;
  by_sig : (int * int, int list) Hashtbl.t;
  functional : (Funcon.ftype * int) option array;
  functional_rels : int array; (* ranks of functional relations *)
  rule_seen : (int * int array, unit) Hashtbl.t;
  rel_ids : int array; (* generator rank -> dictionary id *)
  cls_ids : int array;
  ent_ids : int array;
}

let kb g = g.kb
let config g = g.config
let domain_of g rel = g.dom.(rel)
let entities_of_class g cls = g.by_class.(cls)

(* --- generation --- *)

let assign_entities rng n_entities n_classes class_alpha =
  let zipf = Zipf.create ~n:n_classes ~alpha:class_alpha in
  let cls_of = Array.make n_entities 0 in
  (* Seed every class with one entity so no class is empty, then skew. *)
  for e = 0 to n_entities - 1 do
    cls_of.(e) <- (if e < n_classes then e else Zipf.sample zipf rng)
  done;
  let counts = Array.make n_classes 0 in
  Array.iter (fun c -> counts.(c) <- counts.(c) + 1) cls_of;
  let by_class = Array.map (fun n -> Array.make n 0) counts in
  let fill = Array.make n_classes 0 in
  Array.iteri
    (fun e c ->
      by_class.(c).(fill.(c)) <- e;
      fill.(c) <- fill.(c) + 1)
    cls_of;
  by_class

(* Draw a fact of relation [rel] (generator ranks, not dict ids). *)
let draw_pair g rng rel =
  let dc = g.dom.(rel) and rc = g.rng_cls.(rel) in
  let xs = g.by_class.(dc) and ys = g.by_class.(rc) in
  let x = xs.(Zipf.sample g.cls_zipf.(dc) rng) in
  let y = ys.(Zipf.sample g.cls_zipf.(rc) rng) in
  (x, y)

let random_fact g rng =
  let rel = Zipf.sample g.rel_zipf rng in
  let x, y = draw_pair g rng rel in
  (g.rel_ids.(rel), g.ent_ids.(x), g.cls_ids.(g.dom.(rel)),
   g.ent_ids.(y), g.cls_ids.(g.rng_cls.(rel)))

(* Generate one candidate rule; [None] when the draw is incompatible. *)
let draw_rule ?body_zipf g rng =
  let body_zipf = Option.value body_zipf ~default:g.rule_body_zipf in
  let mix = g.config.pattern_mix in
  let total = Array.fold_left ( +. ) 0. mix in
  let u = Rng.float rng total in
  let rec pick i acc =
    if i >= 5 || acc +. mix.(i) > u then i else pick (i + 1) (acc +. mix.(i))
  in
  let pat = Pattern.of_index (pick 0 0.) in
  let q = Zipf.sample body_zipf rng in
  (* Rule heads skew heavily toward functional relations: learned Horn
     rules conclude into relations like born_in / located_in / capital_of,
     which are exactly the Leibniz-constrained ones.  This is what gives
     the semantic constraints purchase on rule-produced errors. *)
  let head c1 c2 exclude =
    if Array.length g.functional_rels > 0 && Rng.bool rng 0.35 then begin
      let r = Rng.pick rng g.functional_rels in
      if List.mem r exclude then None else Some r
    end
    else begin
      let candidates =
        if Rng.bool rng g.config.head_reuse_prob then
          Option.value ~default:[] (Hashtbl.find_opt g.by_sig (c1, c2))
          |> List.filter (fun r -> not (List.mem r exclude))
        else []
      in
      match candidates with
      | [] ->
        let r = Rng.int rng g.n_relations in
        if List.mem r exclude then None else Some r
      | cs -> Some (List.nth cs (Rng.int rng (List.length cs)))
    end
  in
  let second source c3 =
    let pool = source.(c3) in
    if Array.length pool = 0 then None else Some (Rng.pick rng pool)
  in
  let mk ~p ~pat ~q ~c1 ~c2 ~c3 ~w =
    let row =
      match c3 with
      | None -> [| g.rel_ids.(p); g.rel_ids.(q); g.cls_ids.(c1); g.cls_ids.(c2) |]
      | Some (r, c3) ->
        [|
          g.rel_ids.(p); g.rel_ids.(q); g.rel_ids.(r);
          g.cls_ids.(c1); g.cls_ids.(c2); g.cls_ids.(c3);
        |]
    in
    Some (Pattern.of_identifier_tuple pat row w)
  in
  let w = 0.1 +. Float.abs (Rng.gaussian rng ~mu:1.0 ~sigma:0.6) in
  match pat with
  | Pattern.P1 ->
    let c1 = g.dom.(q) and c2 = g.rng_cls.(q) in
    Option.bind (head c1 c2 [ q ]) (fun p ->
        mk ~p ~pat ~q ~c1 ~c2 ~c3:None ~w)
  | Pattern.P2 ->
    let c1 = g.rng_cls.(q) and c2 = g.dom.(q) in
    Option.bind (head c1 c2 []) (fun p ->
        mk ~p ~pat ~q ~c1 ~c2 ~c3:None ~w)
  | Pattern.P3 ->
    (* q(z, x), r(z, y): dom q = C3, rng q = C1; dom r = C3. *)
    let c3 = g.dom.(q) and c1 = g.rng_cls.(q) in
    Option.bind (second g.by_domain c3) (fun r ->
        let c2 = g.rng_cls.(r) in
        Option.bind (head c1 c2 []) (fun p ->
            mk ~p ~pat ~q ~c1 ~c2 ~c3:(Some (r, c3)) ~w))
  | Pattern.P4 ->
    (* q(x, z), r(z, y) *)
    let c1 = g.dom.(q) and c3 = g.rng_cls.(q) in
    Option.bind (second g.by_domain c3) (fun r ->
        let c2 = g.rng_cls.(r) in
        Option.bind (head c1 c2 []) (fun p ->
            mk ~p ~pat ~q ~c1 ~c2 ~c3:(Some (r, c3)) ~w))
  | Pattern.P5 ->
    (* q(z, x), r(y, z): rng r = C3 *)
    let c3 = g.dom.(q) and c1 = g.rng_cls.(q) in
    Option.bind (second g.by_range c3) (fun r ->
        let c2 = g.dom.(r) in
        Option.bind (head c1 c2 []) (fun p ->
            mk ~p ~pat ~q ~c1 ~c2 ~c3:(Some (r, c3)) ~w))
  | Pattern.P6 ->
    (* q(x, z), r(y, z) *)
    let c1 = g.dom.(q) and c3 = g.rng_cls.(q) in
    Option.bind (second g.by_range c3) (fun r ->
        let c2 = g.dom.(r) in
        Option.bind (head c1 c2 []) (fun p ->
            mk ~p ~pat ~q ~c1 ~c2 ~c3:(Some (r, c3)) ~w))

let rule_key c =
  match Pattern.classify c with
  | Some p -> (Pattern.index p, Pattern.identifier_tuple p c)
  | None -> assert false

let random_rules ?body_alpha g rng n =
  let body_zipf =
    Option.map (fun alpha -> Zipf.create ~n:g.n_relations ~alpha) body_alpha
  in
  let out = ref [] in
  let produced = ref 0 in
  let attempts = ref 0 in
  let budget = (40 * n) + 1000 in
  while !produced < n && !attempts < budget do
    incr attempts;
    match draw_rule ?body_zipf g rng with
    | None -> ()
    | Some c ->
      let key = rule_key c in
      if not (Hashtbl.mem g.rule_seen key) then begin
        Hashtbl.replace g.rule_seen key ();
        out := c :: !out;
        incr produced
      end
  done;
  List.rev !out

(* Wrong-rule / S1 primitive: clone existing rules, substituting a random
   head ("randomly generated, substituting random heads for existing
   rules", Section 6).  The body — hence the firing pattern — is that of a
   real rule; only the conclusion is wrong. *)
let perturbed_rules g rng seeds n =
  let seeds = Array.of_list seeds in
  if Array.length seeds = 0 then []
  else begin
    let out = ref [] in
    let produced = ref 0 in
    let attempts = ref 0 in
    while !produced < n && !attempts < (60 * n) + 1000 do
      incr attempts;
      let c = seeds.(Rng.int rng (Array.length seeds)) in
      let p =
        (* Bad learned rules conclude into the same few relations real
           rules do — mostly functional ones — which is what lets the
           semantic constraints see their collisions. *)
        if Array.length g.functional_rels > 0 && Rng.bool rng 0.35 then
          g.rel_ids.(Rng.pick rng g.functional_rels)
        else if Rng.bool rng 0.9 then begin
          let dc1 = c.Clause.c1 and dc2 = c.Clause.c2 in
          (* dict ids equal generator ranks by construction *)
          match Hashtbl.find_opt g.by_sig (dc1, dc2) with
          | Some (r :: _ as rs) ->
            ignore r;
            g.rel_ids.(List.nth rs (Rng.int rng (List.length rs)))
          | _ -> g.rel_ids.(Rng.int rng g.n_relations)
        end
        else g.rel_ids.(Rng.int rng g.n_relations)
      in
      if p <> c.Clause.head_rel then begin
        let c' = { c with Clause.head_rel = p } in
        let key = rule_key c' in
        if not (Hashtbl.mem g.rule_seen key) then begin
          Hashtbl.replace g.rule_seen key ();
          out := c' :: !out;
          incr produced
        end
      end
    done;
    List.rev !out
  end

let generate config =
  let n_entities, n_classes, n_relations, n_facts, n_rules = sizes config in
  let kb = Gamma.create () in
  let root = Rng.create config.seed in
  let rng_structure = Rng.split root "structure" in
  let rng_facts = Rng.split root "facts" in
  let rng_rules = Rng.split root "rules" in
  (* Symbols.  Interned in id order so dict id = rank. *)
  let ent_ids = Array.init n_entities (fun i -> Gamma.entity kb (Printf.sprintf "e%d" i)) in
  let cls_ids = Array.init n_classes (fun i -> Gamma.cls kb (Printf.sprintf "C%d" i)) in
  let rel_ids = Array.init n_relations (fun i -> Gamma.relation kb (Printf.sprintf "r%d" i)) in
  (* Classes and signatures. *)
  let by_class = assign_entities rng_structure n_entities n_classes config.class_alpha in
  let cls_pick = Zipf.create ~n:n_classes ~alpha:config.class_alpha in
  let dom = Array.init n_relations (fun _ -> Zipf.sample cls_pick rng_structure) in
  let rng_cls = Array.init n_relations (fun _ -> Zipf.sample cls_pick rng_structure) in
  let by_domain_l = Array.make n_classes [] in
  let by_range_l = Array.make n_classes [] in
  let by_sig = Hashtbl.create (2 * n_relations) in
  for r = n_relations - 1 downto 0 do
    by_domain_l.(dom.(r)) <- r :: by_domain_l.(dom.(r));
    by_range_l.(rng_cls.(r)) <- r :: by_range_l.(rng_cls.(r));
    Hashtbl.replace by_sig
      (dom.(r), rng_cls.(r))
      (r :: Option.value ~default:[] (Hashtbl.find_opt by_sig (dom.(r), rng_cls.(r))))
  done;
  (* Functional constraints (Leibniz-like).  Fact-heavy relations are
     disproportionately functional — born_in, capital_of and friends are
     both common and functional — which is what makes the constraints
     effective against propagated errors. *)
  let functional =
    Array.init n_relations (fun r ->
        let boost = if r < max 1 (n_relations / 20) then 3.5 else 0.85 in
        if Rng.bool rng_structure (Float.min 0.7 (boost *. config.functional_fraction)) then
          if Rng.bool rng_structure 0.10 then
            Some (Funcon.Type_I, 1 + 1 + Rng.int rng_structure 3)
            (* pseudo-functional, degree 2-4 *)
          else if Rng.bool rng_structure 0.11 then Some (Funcon.Type_II, 1)
          else Some (Funcon.Type_I, 1)
        else None)
  in
  Array.iteri
    (fun r f ->
      match f with
      | Some (ftype, degree) ->
        Gamma.add_funcon kb (Funcon.make ~rel:rel_ids.(r) ~ftype ~degree)
      | None -> ())
    functional;
  let g =
    {
      config;
      kb;
      n_relations;
      dom;
      rng_cls;
      by_class;
      cls_zipf =
        Array.map
          (fun ents -> Zipf.create ~n:(max 1 (Array.length ents)) ~alpha:config.entity_alpha)
          by_class;
      rel_zipf = Zipf.create ~n:n_relations ~alpha:config.relation_alpha;
      rule_body_zipf = Zipf.create ~n:n_relations ~alpha:config.rule_body_alpha;
      by_domain = Array.map Array.of_list by_domain_l;
      by_range = Array.map Array.of_list by_range_l;
      by_sig;
      functional;
      functional_rels =
        (let acc = ref [] in
         Array.iteri (fun r f -> if f <> None then acc := r :: !acc) functional;
         Array.of_list !acc);
      rule_seen = Hashtbl.create (4 * n_rules);
      rel_ids;
      cls_ids;
      ent_ids;
    }
  in
  (* Facts, respecting functional degrees. *)
  let usage : (int * int, int) Hashtbl.t = Hashtbl.create 1024 in
  let respects rel x y =
    match functional.(rel) with
    | None -> true
    | Some (Funcon.Type_I, degree) ->
      Option.value ~default:0 (Hashtbl.find_opt usage (rel, x)) < degree
    | Some (Funcon.Type_II, degree) ->
      Option.value ~default:0 (Hashtbl.find_opt usage (rel, y)) < degree
  in
  let note rel x y =
    match functional.(rel) with
    | None -> ()
    | Some (Funcon.Type_I, _) ->
      Hashtbl.replace usage (rel, x)
        (1 + Option.value ~default:0 (Hashtbl.find_opt usage (rel, x)))
    | Some (Funcon.Type_II, _) ->
      Hashtbl.replace usage (rel, y)
        (1 + Option.value ~default:0 (Hashtbl.find_opt usage (rel, y)))
  in
  let inserted = ref 0 in
  let attempts = ref 0 in
  let budget = 8 * n_facts in
  while !inserted < n_facts && !attempts < budget do
    incr attempts;
    let rel = Zipf.sample g.rel_zipf rng_facts in
    let x, y = draw_pair g rng_facts rel in
    if respects rel x y then begin
      let before = Kb.Storage.size (Gamma.pi kb) in
      ignore
        (Gamma.add_fact kb ~r:rel_ids.(rel) ~x:ent_ids.(x)
           ~c1:cls_ids.(dom.(rel)) ~y:ent_ids.(y) ~c2:cls_ids.(rng_cls.(rel))
           ~w:(0.5 +. Rng.float rng_facts 0.5));
      if Kb.Storage.size (Gamma.pi kb) > before then begin
        note rel x y;
        incr inserted
      end
    end
  done;
  (* Rules. *)
  List.iter (Gamma.add_rule kb) (random_rules g rng_rules n_rules);
  g
