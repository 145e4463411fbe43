type engine = Single_node | Mpp of { cluster : Mpp.Cluster.t; views : bool }
type quality = { semantic_constraints : bool; rule_theta : float }

type t = {
  engine : engine;
  quality : quality;
  max_iterations : int;
  inference : Inference.Hybrid.options option;
  obs : Obs.Config.t;
  target_r_hat : float option;
  min_ess : float option;
  checkpoint_sweeps : int;
  spill_dir : string option;
  segment_rows : int;
  spill_threshold_bytes : int;
}

(* The enumerator allocates nothing per world but loops over [2^k]
   assignments; past 30 the shift itself would overflow long before the
   loop ever finished. *)
let max_exact_max_vars = 30

(* Elimination cliques hold width + 1 variables, so the width bound must
   sit one under [Jtree]'s clique-size guard — past it every "eliminable"
   component would abort on table allocation instead of being solved
   (and a 28-variable clique is already a 2 GiB float table). *)
let max_max_width = Inference.Jtree.max_clique_vars - 1

let check_range name ~max v =
  if v < 0 || v > max then
    invalid_arg (Printf.sprintf "Config.make: %s must be in [0, %d]" name max)

let make ?(engine = Single_node) ?(semantic_constraints = false)
    ?(rule_theta = 1.0) ?(max_iterations = 15)
    ?(inference = Some Inference.Hybrid.default_options)
    ?(obs = Obs.Config.default) ?target_r_hat ?min_ess
    ?(checkpoint_sweeps = Inference.Chromatic.default_checkpoint)
    ?exact_max_vars ?max_width ?hybrid:_ ?spill_dir
    ?(segment_rows = Storage.Spill.default_segment_rows)
    ?(spill_threshold_bytes = Storage.Spill.default_threshold_bytes) () =
  if checkpoint_sweeps < 1 then invalid_arg "Config.make: checkpoint_sweeps < 1";
  if segment_rows < 1 then invalid_arg "Config.make: segment_rows < 1";
  if spill_threshold_bytes < 0 then
    invalid_arg "Config.make: spill_threshold_bytes < 0";
  Option.iter (check_range "exact_max_vars" ~max:max_exact_max_vars)
    exact_max_vars;
  Option.iter (check_range "max_width" ~max:max_max_width) max_width;
  let inference =
    Option.map
      (fun (o : Inference.Hybrid.options) ->
        {
          o with
          exact_max_vars =
            Option.value exact_max_vars ~default:o.exact_max_vars;
          max_width = Option.value max_width ~default:o.max_width;
        })
      inference
  in
  {
    engine;
    quality = { semantic_constraints; rule_theta };
    max_iterations;
    inference;
    obs;
    target_r_hat;
    min_ess;
    checkpoint_sweeps;
    spill_dir;
    segment_rows;
    spill_threshold_bytes;
  }

let default = make ()
let solver c =
  Option.value c.inference ~default:Inference.Hybrid.default_options
let no_inference c = { c with inference = None }
let with_obs obs c = { c with obs }

(* The shared spill policy of one engine run — its atomic directory
   counter is what keeps concurrent spills from colliding, so build it
   once per run, not per spill site. *)
let spill_policy c =
  Option.map
    (fun root ->
      Storage.Spill.create ~segment_rows:c.segment_rows
        ~threshold_bytes:c.spill_threshold_bytes ~root ())
    c.spill_dir

let with_early_stop ?target_r_hat ?min_ess c =
  { c with target_r_hat; min_ess }

(* Early stop is requested when either criterion is set; the other one
   defaults to a value that always holds. *)
let early_stop_criteria c =
  match (c.target_r_hat, c.min_ess) with
  | None, None -> None
  | tr, me ->
    Some
      {
        Inference.Diagnostics.Online.target_r_hat =
          Option.value tr ~default:Float.infinity;
        min_ess = Option.value me ~default:0.;
      }
