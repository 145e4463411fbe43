(** Engine configuration for the ProbKB pipeline.

    Build configurations with {!make} and derive variants with the
    [with_*] updaters:

    {[
      let config =
        Config.make ~semantic_constraints:true ~max_iterations:10 ()
        |> Config.with_obs Obs.Config.enabled
    ]}

    The record remains public for pattern matching, but constructing it
    literally is deprecated in favour of [make] — new fields (like [obs])
    get defaults there, so call sites don't break when the configuration
    grows. *)

(** Where grounding executes. *)
type engine =
  | Single_node  (** the PostgreSQL-style configuration ("ProbKB") *)
  | Mpp of { cluster : Mpp.Cluster.t; views : bool }
      (** the Greenplum-style configuration: "ProbKB-p" with redistributed
          materialized views, "ProbKB-pn" without *)

(** Quality control (paper, Section 5). *)
type quality = {
  semantic_constraints : bool;  (** apply Ω during grounding *)
  rule_theta : float;  (** rule-cleaning threshold θ ∈ (0, 1]; 1 = keep all *)
}

type t = {
  engine : engine;
  quality : quality;
  max_iterations : int;
  inference : Inference.Hybrid.options option;
      (** the per-component dispatcher's settings ({!Inference.Hybrid}):
          the enumeration cap, the junction-tree width bound and the
          residual sampler's options.  Batch inference, session refreshes
          and local reads all solve with this record; [None] skips batch
          inference and refreshes (local reads then use
          {!Inference.Hybrid.default_options}, see {!solver}) *)
  obs : Obs.Config.t;
      (** observability: when enabled, the engine's trace context records
          span trees, counters and operator metrics across every stage *)
  target_r_hat : float option;
      (** adaptive early stop: end the residual sampler once the online
          split-R̂ falls to this value (and [min_ess] holds).  [None]
          (default) runs the full sweep budget *)
  min_ess : float option;
      (** adaptive early stop: minimum effective sample size per
          variable.  Setting either criterion turns early stopping on *)
  checkpoint_sweeps : int;
      (** sweeps between diagnostic checkpoints / snapshot records
          (default {!Inference.Chromatic.default_checkpoint}) *)
  spill_dir : string option;
      (** out-of-core storage root (default [None] — fully in-memory).
          Read only by the pn MPP executor ([Mpp { views = false }]):
          once the fact table crosses [spill_threshold_bytes], each
          distributed fact shard is written to a segment store of its
          own under this root and dropped from memory.  The single node
          and views mode never spill.  Results are bit-identical either
          way *)
  segment_rows : int;
      (** rows per column segment in spilled shards (default
          {!Storage.Spill.default_segment_rows}) *)
  spill_threshold_bytes : int;
      (** fact-table byte size at which pn shards are spilled (default
          {!Storage.Spill.default_threshold_bytes} = 64 MiB) *)
}

(** [make ()] is the default configuration: single node, no quality
    control, 15 iterations, {!Inference.Hybrid.default_options} for
    inference, observability off, no early stop.  Each labelled argument
    overrides one knob.

    [exact_max_vars] and [max_width] override those fields of the
    [inference] record.  With [~inference:None] nothing stores them, so
    local reads keep the defaults.  [hybrid] is ignored: Hybrid is the
    only inference route; the argument stays for callers that still
    pass it.
    @raise Invalid_argument when [checkpoint_sweeps < 1],
    [segment_rows < 1], [spill_threshold_bytes < 0],
    [exact_max_vars] is outside [[0, 30]], or [max_width] is outside
    [[0, Inference.Jtree.max_clique_vars - 1]] (elimination cliques hold
    width + 1 variables, so larger bounds could only abort on the
    clique-size guard). *)
val make :
  ?engine:engine ->
  ?semantic_constraints:bool ->
  ?rule_theta:float ->
  ?max_iterations:int ->
  ?inference:Inference.Hybrid.options option ->
  ?obs:Obs.Config.t ->
  ?target_r_hat:float ->
  ?min_ess:float ->
  ?checkpoint_sweeps:int ->
  ?exact_max_vars:int ->
  ?max_width:int ->
  ?hybrid:bool ->
  ?spill_dir:string ->
  ?segment_rows:int ->
  ?spill_threshold_bytes:int ->
  unit ->
  t

(** [make ()]. *)
val default : t

(** [solver c] is the dispatcher settings every solve uses: [c.inference],
    or {!Inference.Hybrid.default_options} when inference is off (local
    reads still solve their neighbourhoods). *)
val solver : t -> Inference.Hybrid.options

(** [no_inference c] disables the marginal-inference stage. *)
val no_inference : t -> t

val with_obs : Obs.Config.t -> t -> t

(** [spill_policy c] is the spill policy of one engine run ([None] when
    [spill_dir] is unset).  Build it once per run and share it: the
    policy's atomic counter is what keeps concurrently-allocated store
    directories distinct. *)
val spill_policy : t -> Storage.Spill.t option

(** [with_early_stop ?target_r_hat ?min_ess c] replaces both early-stop
    criteria (absent arguments clear them). *)
val with_early_stop : ?target_r_hat:float -> ?min_ess:float -> t -> t

(** [early_stop_criteria c] is the sampler criteria when either knob is
    set ([None] otherwise); an unset knob defaults to always-satisfied. *)
val early_stop_criteria :
  t -> Inference.Diagnostics.Online.criteria option
