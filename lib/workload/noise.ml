module Gamma = Kb.Gamma
module Storage = Kb.Storage
module Table = Relational.Table
module Clause = Mln.Clause
module Pattern = Mln.Pattern

type config = {
  seed : int;
  extraction_error_rate : float;
  ambiguity_rate : float;
  synonym_rate : float;
  general_type_rate : float;
  wrong_rule_fraction : float;
  score_good : float * float;
  score_bad : float * float;
  truth_max_iterations : int;
}

let default_config =
  {
    seed = 7001;
    extraction_error_rate = 0.06;
    ambiguity_rate = 0.35;
    synonym_rate = 0.006;
    general_type_rate = 0.0008;
    wrong_rule_fraction = 0.35;
    score_good = (0.70, 0.14);
    score_bad = (0.45, 0.15);
    truth_max_iterations = 20;
  }

type provenance = Extraction_error | Synonym_dup | General_dup

type key = int * int * int * int * int (* r, x, c1, y, c2 *)

type t = {
  cfg : config;
  noisy : Gamma.t;
  truth_pi : Storage.t;
  scored : Quality.Rule_cleaning.scored list;
  wrong : (int * int array, unit) Hashtbl.t; (* rule identifier keys *)
  amb : (int, int * int) Hashtbl.t; (* merged entity -> referents *)
  syn_canon : (int, int) Hashtbl.t; (* alias -> canonical *)
  provenance : (key, provenance) Hashtbl.t; (* only non-clean base facts *)
  clean_rules : Clause.t list;
  clean_base : Storage.t; (* the un-merged clean base facts *)
  raw_errors : key list; (* extraction errors with original entities *)
  (* Closure of the noisy base facts under the *clean* rules, for error
     attribution; built on first use. *)
  mutable sound_closure : (key, unit) Hashtbl.t option;
  (* Same closure with ambiguity undone (original referents): separates
     merge-enabled derivations from plain rule overreach. *)
  mutable noamb_closure : (key, unit) Hashtbl.t option;
}

let noisy n = n.noisy
let scored_rules n = n.scored
let clean_rules n = n.clean_rules
let truth_size n = Storage.size n.truth_pi
let n_ambiguous n = Hashtbl.length n.amb

let rule_key c =
  match Pattern.classify c with
  | Some p -> (Pattern.index p, Pattern.identifier_tuple p c)
  | None -> invalid_arg "Noise.rule_key: invalid clause"

let is_wrong_rule n c = Hashtbl.mem n.wrong (rule_key c)

let expand n e =
  match Hashtbl.find_opt n.amb e with
  | Some (a, b) -> [ a; b ]
  | None -> (
    match Hashtbl.find_opt n.syn_canon e with
    | Some c -> [ c ]
    | None -> [ e ])

let is_correct n ~r ~x ~c1 ~y ~c2 =
  List.exists
    (fun x' ->
      List.exists
        (fun y' -> Option.is_some (Storage.find n.truth_pi ~r ~x:x' ~c1 ~y:y' ~c2))
        (expand n y))
    (expand n x)

(* --- construction --- *)

let copy_facts ~src ~dst ~map_entity =
  Storage.iter
    (fun ~id:_ ~r ~x ~c1 ~y ~c2 ~w ->
      ignore (Gamma.add_fact dst ~r ~x:(map_entity x) ~c1 ~y:(map_entity y) ~c2 ~w))
    (Gamma.pi src)

(* Entities that occur in at least one fact, grouped by the class they
   were used under, with their fact counts (descending). *)
let fact_entities kb =
  let seen = Hashtbl.create 1024 in
  let bump k =
    Hashtbl.replace seen k (1 + Option.value ~default:0 (Hashtbl.find_opt seen k))
  in
  Storage.iter
    (fun ~id:_ ~r:_ ~x ~c1 ~y ~c2 ~w:_ ->
      bump (x, c1);
      bump (y, c2))
    (Gamma.pi kb);
  let by_class = Hashtbl.create 64 in
  Hashtbl.iter
    (fun (e, c) n ->
      Hashtbl.replace by_class c
        ((e, n) :: Option.value ~default:[] (Hashtbl.find_opt by_class c)))
    seen;
  Hashtbl.iter
    (fun c l ->
      Hashtbl.replace by_class c
        (List.sort (fun (_, a) (_, b) -> compare b a) l))
    by_class;
  by_class

let make base cfg =
  let clean_kb = Reverb_sherlock.kb base in
  let rng = Rng.create cfg.seed in
  let rng_amb = Rng.split rng "ambiguity"
  and rng_syn = Rng.split rng "synonyms"
  and rng_gen = Rng.split rng "general"
  and rng_err = Rng.split rng "errors"
  and rng_rules = Rng.split rng "rules"
  and rng_scores = Rng.split rng "scores" in
  let clean_rules = Gamma.rules clean_kb in
  (* 1. Ambiguous entity pairs, per class.  Merges are biased toward
     subjects of functional relations: those are the name collisions the
     constraints can actually expose (the paper's 34% detected share). *)
  let amb = Hashtbl.create 256 in
  let merged_of = Hashtbl.create 512 in
  let by_class = fact_entities clean_kb in
  let n_merges = ref 0 in
  let fun_rels_i = Hashtbl.create 64 in
  List.iter
    (fun (fc : Kb.Funcon.t) ->
      if fc.Kb.Funcon.ftype = Kb.Funcon.Type_I then
        Hashtbl.replace fun_rels_i fc.Kb.Funcon.rel ())
    (Gamma.omega clean_kb);
  let fun_subjects = Hashtbl.create 256 in
  Storage.iter
    (fun ~id:_ ~r ~x ~c1 ~y:_ ~c2:_ ~w:_ ->
      if Hashtbl.mem fun_rels_i r then
        Hashtbl.replace fun_subjects (r, x, c1) ())
    (Gamma.pi clean_kb);
  let merge e1 e2 =
    if e1 <> e2 && (not (Hashtbl.mem merged_of e1)) && not (Hashtbl.mem merged_of e2)
    then begin
      let m = Gamma.entity clean_kb (Printf.sprintf "amb%d" !n_merges) in
      incr n_merges;
      Hashtbl.replace amb m (e1, e2);
      Hashtbl.replace merged_of e1 m;
      Hashtbl.replace merged_of e2 m
    end
  in
  (* Group functional-relation subjects by (relation, class) and pair
     them up within a group: both referents then carry a fact of the same
     functional relation, so the merge itself trips the constraint — the
     directly *detectable* ambiguities of Figure 7(b). *)
  let fun_by_class = Hashtbl.create 64 in
  Hashtbl.iter
    (fun (r, e, c) () ->
      Hashtbl.replace fun_by_class (r, c)
        (e :: Option.value ~default:[] (Hashtbl.find_opt fun_by_class (r, c))))
    fun_subjects;
  (* Ambiguity disproportionately strikes prolific surface forms — common
     first/last names — so pair hub entities first: merged hubs are the
     join-key amplifiers of Figure 5(a). *)
  let pair_from arr share =
    let pairs = int_of_float (share /. 2. *. float_of_int (Array.length arr)) in
    (* jitter within the hub prefix so runs differ by seed *)
    let prefix = Array.sub arr 0 (min (Array.length arr) (4 * pairs)) in
    Rng.shuffle rng_amb prefix;
    for i = 0 to min pairs (Array.length prefix / 2) - 1 do
      merge prefix.(2 * i) prefix.((2 * i) + 1)
    done
  in
  Hashtbl.iter
    (fun _cls entities ->
      pair_from (Array.of_list entities) (0.6 *. cfg.ambiguity_rate))
    fun_by_class;
  Hashtbl.iter
    (fun _cls entities ->
      pair_from (Array.of_list (List.map fst entities)) (0.4 *. cfg.ambiguity_rate))
    by_class;
  let map_entity e = Option.value ~default:e (Hashtbl.find_opt merged_of e) in
  (* 2. Synonym aliases (object-side). *)
  let syn_canon = Hashtbl.create 64 in
  let alias_of = Hashtbl.create 64 in
  let n_syn = ref 0 in
  Hashtbl.iter
    (fun _cls entities ->
      List.iter
        (fun (e, _count) ->
          if
            Rng.bool rng_syn cfg.synonym_rate
            && (not (Hashtbl.mem merged_of e))
            && not (Hashtbl.mem alias_of e)
          then begin
            let a = Gamma.entity clean_kb (Printf.sprintf "syn%d" !n_syn) in
            incr n_syn;
            Hashtbl.replace syn_canon a e;
            Hashtbl.replace alias_of e a
          end)
        entities)
    by_class;
  (* 3. Truth KB: clean facts (original referents) + general-type
     duplicates, closed under the clean rules. *)
  let truth_kb = Gamma.create_like clean_kb in
  copy_facts ~src:clean_kb ~dst:truth_kb ~map_entity:Fun.id;
  let provenance = Hashtbl.create 1024 in
  let general_dups = ref [] in
  let funcon_rels = Hashtbl.create 64 in
  List.iter
    (fun (fc : Kb.Funcon.t) ->
      if fc.Kb.Funcon.ftype = Kb.Funcon.Type_I then
        Hashtbl.replace funcon_rels fc.Kb.Funcon.rel ())
    (Gamma.omega clean_kb);
  Storage.iter
    (fun ~id:_ ~r ~x ~c1 ~y ~c2 ~w:_ ->
      if Hashtbl.mem funcon_rels r && Rng.bool rng_gen cfg.general_type_rate then begin
        (* A coarser-granularity object from the same class: both facts are
           true in reality even though they trip the constraint. *)
        let pool = Reverb_sherlock.entities_of_class base 0 in
        ignore pool;
        let y' = Gamma.entity truth_kb (Printf.sprintf "broad_%d_%d" r y) in
        Gamma.declare_member truth_kb ~cls:c2 ~entity:y';
        ignore (Gamma.add_fact truth_kb ~r ~x ~c1 ~y:y' ~c2 ~w:0.9);
        general_dups := (r, x, c1, y', c2) :: !general_dups
      end)
    (Gamma.pi clean_kb);
  List.iter (Gamma.add_rule truth_kb) clean_rules;
  ignore
    (Grounding.Ground.closure
       ~options:
         {
           Grounding.Ground.default_options with
           max_iterations = cfg.truth_max_iterations;
         }
       truth_kb);
  (* The real world is consistent with the functional constraints: when
     sound-but-uncertain rules infer several candidate objects for a
     functional subject, only one of them actually holds.  Keep the first
     fact of each functional group in the truth (base facts precede
     inferred ones in row order) and drop the rest — except the
     deliberate granularity duplicates, which model relations that are
     only approximately functional. *)
  let general_keep = Hashtbl.create 64 in
  List.iter
    (fun (r, x, c1, y', c2) -> Hashtbl.replace general_keep (r, x, c1, y', c2) ())
    !general_dups;
  let degree_i = Hashtbl.create 64 and degree_ii = Hashtbl.create 64 in
  List.iter
    (fun (fc : Kb.Funcon.t) ->
      let tbl =
        match fc.Kb.Funcon.ftype with
        | Kb.Funcon.Type_I -> degree_i
        | Kb.Funcon.Type_II -> degree_ii
      in
      Hashtbl.replace tbl fc.Kb.Funcon.rel fc.Kb.Funcon.degree)
    (Gamma.omega clean_kb);
  let seen_i = Hashtbl.create 4096 and seen_ii = Hashtbl.create 4096 in
  let truth_tbl = Storage.table (Gamma.pi truth_kb) in
  let doomed = Hashtbl.create 4096 in
  Table.iter
    (fun row ->
      let r = Table.get truth_tbl row 1 and x = Table.get truth_tbl row 2
      and c1 = Table.get truth_tbl row 3 and y = Table.get truth_tbl row 4
      and c2 = Table.get truth_tbl row 5 in
      if not (Hashtbl.mem general_keep (r, x, c1, y, c2)) then begin
        (match Hashtbl.find_opt degree_i r with
        | Some d ->
          let k = (r, x, c1) in
          let n = Option.value ~default:0 (Hashtbl.find_opt seen_i k) in
          if n >= d then Hashtbl.replace doomed row ()
          else Hashtbl.replace seen_i k (n + 1)
        | None -> ());
        (match Hashtbl.find_opt degree_ii r with
        | Some d ->
          let k = (r, y, c2) in
          let n = Option.value ~default:0 (Hashtbl.find_opt seen_ii k) in
          if n >= d then Hashtbl.replace doomed row ()
          else Hashtbl.replace seen_ii k (n + 1)
        | None -> ());
      end)
    truth_tbl;
  ignore
    (Storage.delete_where (Gamma.pi truth_kb) (fun _ row -> Hashtbl.mem doomed row));
  (* 4. The noisy KB: clean facts rewritten through merges, plus synonym
     duplicates, general-type duplicates and extraction errors. *)
  let noisy = Gamma.create_like clean_kb in
  copy_facts ~src:clean_kb ~dst:noisy ~map_entity;
  (* Synonym duplicates: R(x, e) also asserted as R(x, alias-of-e). *)
  Storage.iter
    (fun ~id:_ ~r ~x ~c1 ~y ~c2 ~w ->
      match Hashtbl.find_opt alias_of y with
      | Some a when Rng.bool rng_syn 0.6 ->
        let key = (r, map_entity x, c1, a, c2) in
        let before = Storage.size (Gamma.pi noisy) in
        ignore (Gamma.add_fact noisy ~r ~x:(map_entity x) ~c1 ~y:a ~c2 ~w);
        if Storage.size (Gamma.pi noisy) > before then
          Hashtbl.replace provenance key Synonym_dup
      | _ -> ())
    (Gamma.pi clean_kb);
  List.iter
    (fun (r, x, c1, y', c2) ->
      let key = (r, map_entity x, c1, y', c2) in
      let before = Storage.size (Gamma.pi noisy) in
      ignore (Gamma.add_fact noisy ~r ~x:(map_entity x) ~c1 ~y:y' ~c2 ~w:0.85);
      if Storage.size (Gamma.pi noisy) > before then
        Hashtbl.replace provenance key General_dup)
    !general_dups;
  (* Extraction errors: random draws outside the truth. *)
  let n_errors =
    int_of_float (cfg.extraction_error_rate *. float_of_int (Storage.size (Gamma.pi clean_kb)))
  in
  let added = ref 0 in
  let attempts = ref 0 in
  let raw_errors = ref [] in
  while !added < n_errors && !attempts < 20 * n_errors do
    incr attempts;
    let r, x, c1, y, c2 = Reverb_sherlock.random_fact base rng_err in
    if Option.is_none (Storage.find (Gamma.pi truth_kb) ~r ~x ~c1 ~y ~c2) then begin
      let key = (r, map_entity x, c1, map_entity y, c2) in
      let before = Storage.size (Gamma.pi noisy) in
      ignore
        (Gamma.add_fact noisy ~r ~x:(map_entity x) ~c1 ~y:(map_entity y) ~c2
           ~w:(0.3 +. Rng.float rng_err 0.5));
      if Storage.size (Gamma.pi noisy) > before then begin
        Hashtbl.replace provenance key Extraction_error;
        raw_errors := (r, x, c1, y, c2) :: !raw_errors;
        incr added
      end
    end
  done;
  (* 5. Rules: clean + wrong, with overlapping score distributions. *)
  let n_clean = List.length clean_rules in
  let n_wrong =
    int_of_float
      (Float.round
         (cfg.wrong_rule_fraction /. (1. -. cfg.wrong_rule_fraction)
         *. float_of_int n_clean))
  in
  (* Half the wrong rules are head-perturbations of real rules (plausible
     junk that fires like a real rule); half are independent random draws
     (arbitrary garbage).  Sherlock's learned rule set contains both. *)
  let n_pert = n_wrong / 2 in
  let wrong_rules =
    Reverb_sherlock.perturbed_rules base rng_rules clean_rules n_pert
    @ Reverb_sherlock.random_rules ~body_alpha:0. base rng_rules (n_wrong - n_pert)
  in
  let wrong = Hashtbl.create (2 * max 1 n_wrong) in
  List.iter (fun c -> Hashtbl.replace wrong (rule_key c) ()) wrong_rules;
  List.iter (Gamma.add_rule noisy) clean_rules;
  List.iter (Gamma.add_rule noisy) wrong_rules;
  List.iter (Gamma.add_funcon noisy) (Gamma.omega clean_kb);
  let clip s = Float.max 0.02 (Float.min 0.99 s) in
  let score_of c =
    let mu, sigma =
      if Hashtbl.mem wrong (rule_key c) then cfg.score_bad else cfg.score_good
    in
    clip (Rng.gaussian rng_scores ~mu ~sigma)
  in
  let scored =
    List.map
      (fun c -> { Quality.Rule_cleaning.clause = c; score = score_of c })
      (Gamma.rules noisy)
  in
  {
    cfg;
    noisy;
    truth_pi = Gamma.pi truth_kb;
    scored;
    wrong;
    amb;
    syn_canon;
    provenance;
    clean_rules;
    clean_base = Gamma.pi clean_kb;
    raw_errors = !raw_errors;
    sound_closure = None;
    noamb_closure = None;
  }

(* --- violation attribution --- *)

let sound_closure n =
  match n.sound_closure with
  | Some s -> s
  | None ->
    (* Closure of the noisy *base* facts (the weighted ones) under the
       clean rules: anything incorrect in here propagated from bad inputs
       (ambiguous join keys, extraction errors), not from bad rules. *)
    let kb = Gamma.create_like n.noisy in
    Storage.iter
      (fun ~id:_ ~r ~x ~c1 ~y ~c2 ~w ->
        if not (Table.is_null_weight w) then
          ignore (Gamma.add_fact kb ~r ~x ~c1 ~y ~c2 ~w))
      (Gamma.pi n.noisy);
    List.iter (Gamma.add_rule kb) n.clean_rules;
    ignore
      (Grounding.Ground.closure
         ~options:
           {
             Grounding.Ground.default_options with
             max_iterations = n.cfg.truth_max_iterations;
           }
         kb);
    let s = Hashtbl.create 4096 in
    Storage.iter
      (fun ~id:_ ~r ~x ~c1 ~y ~c2 ~w:_ ->
        Hashtbl.replace s (r, x, c1, y, c2) ())
      (Gamma.pi kb);
    n.sound_closure <- Some s;
    s

let noamb_closure n =
  match n.noamb_closure with
  | Some s -> s
  | None ->
    (* Closure of the clean base + raw extraction errors (original
       referents, no merges) under the clean rules.  Anything derivable
       here did not need the ambiguity to exist. *)
    let kb = Gamma.create_like n.noisy in
    Storage.iter
      (fun ~id:_ ~r ~x ~c1 ~y ~c2 ~w ->
        ignore (Gamma.add_fact kb ~r ~x ~c1 ~y ~c2 ~w))
      n.clean_base;
    List.iter
      (fun (r, x, c1, y, c2) ->
        ignore (Gamma.add_fact kb ~r ~x ~c1 ~y ~c2 ~w:0.5))
      n.raw_errors;
    List.iter (Gamma.add_rule kb) n.clean_rules;
    ignore
      (Grounding.Ground.closure
         ~options:
           {
             Grounding.Ground.default_options with
             max_iterations = n.cfg.truth_max_iterations;
           }
         kb);
    let s = Hashtbl.create 4096 in
    Storage.iter
      (fun ~id:_ ~r ~x ~c1 ~y ~c2 ~w:_ ->
        Hashtbl.replace s (r, x, c1, y, c2) ())
      (Gamma.pi kb);
    n.noamb_closure <- Some s;
    s

(* Is the (possibly merged-entity) key derivable without the merges? *)
let derivable_without_ambiguity n (r, x, c1, y, c2) =
  let s = noamb_closure n in
  List.exists
    (fun x' ->
      List.exists (fun y' -> Hashtbl.mem s (r, x', c1, y', c2)) (expand n y))
    (expand n x)

let classify_violation n (v, group) =
  if Hashtbl.mem n.amb v.Quality.Semantic.entity then
    Quality.Error_analysis.Ambiguous_entity
  else begin
    let correct ((r, x, c1, y, c2), _) = is_correct n ~r ~x ~c1 ~y ~c2 in
    let incorrect = List.filter (fun f -> not (correct f)) group in
    if incorrect = [] then begin
      (* Every fact true: a benign violation — synonym or granularity. *)
      let other ((_, x, _, y, _), _) =
        match v.Quality.Semantic.ftype with
        | Kb.Funcon.Type_I -> y
        | Kb.Funcon.Type_II -> x
      in
      let is_syn f = Hashtbl.mem n.syn_canon (other f) in
      if List.exists is_syn group then Quality.Error_analysis.Synonym
      else Quality.Error_analysis.General_type
    end
    else begin
      let attribution (key, inferred) =
        match Hashtbl.find_opt n.provenance key with
        | Some Extraction_error -> Quality.Error_analysis.Incorrect_extraction
        | Some Synonym_dup -> Quality.Error_analysis.Synonym
        | Some General_dup -> Quality.Error_analysis.General_type
        | None ->
          if inferred then
            (* If the clean rules derive it from the noisy (merged) inputs
               but not from the un-merged ones, an ambiguous join key is to
               blame; if a wrong rule was needed, the rule is; derivations
               that exist either way are sound-looking rules whose
               conclusion does not actually hold — the paper's "incorrect
               rules". *)
            if not (Hashtbl.mem (sound_closure n) key) then
              Quality.Error_analysis.Incorrect_rule
            else if derivable_without_ambiguity n key then
              Quality.Error_analysis.Incorrect_rule
            else Quality.Error_analysis.Ambiguous_join_key
          else
            (* A clean base fact can only be wrong through an ambiguous
               merge of its entities. *)
            Quality.Error_analysis.Ambiguous_join_key
      in
      (* Prefer base-fact provenance over inferred facts for determinism. *)
      let rank f =
        match attribution f with
        | Quality.Error_analysis.Incorrect_extraction -> 0
        | Quality.Error_analysis.Synonym | Quality.Error_analysis.General_type -> 1
        | _ -> 2
      in
      let chosen =
        List.fold_left
          (fun best f -> if rank f < rank best then f else best)
          (List.hd incorrect) (List.tl incorrect)
      in
      attribution chosen
    end
  end
