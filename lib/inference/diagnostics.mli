(** Sampler convergence diagnostics.

    MCMC estimates are only trustworthy once the chain has mixed; the
    standard check is the Gelman–Rubin potential scale reduction factor
    (R̂), which compares between-chain to within-chain variance.  Values
    near 1 indicate convergence; the usual acceptance threshold is 1.1.

    This is operational support the paper's pipeline leaves to GraphLab;
    here it closes the loop for the built-in chromatic sampler. *)

(** Online (single-run) diagnostics.

    Rather than re-running several fresh chains (a multiplier on
    inference cost), [Online] computes split-R̂ and an effective sample
    size incrementally on the chain the sampler is already running:
    Welford mean/variance per dense variable accumulated in fixed-size
    segments (one per checkpoint window), split-R̂ from merging first-half
    against second-half segments (Chan's exact combination), ESS from the
    lag-1 autocorrelation of the Rao-Blackwellized conditionals
    (AR(1): ESS = n·(1-ρ₁)/(1+ρ₁)).

    Thread safety under the chromatic schedule: each variable is updated
    by exactly one chunk per sweep, so concurrent {!observe} calls write
    disjoint indices; {!begin_sweep} and {!report} must run between pool
    barriers.  The accumulated state — and hence every diagnostic — is
    bit-identical for every pool size. *)
module Online : sig
  (** Early-stop criteria: both must hold at a checkpoint. *)
  type criteria = { target_r_hat : float; min_ess : float }

  (** R̂ ≤ 1.05 and ESS ≥ 100. *)
  val default_criteria : criteria

  type t

  (** [create ?segment n] tracks [n] variables with [segment] sweeps per
      accumulation window (default 20 — match the checkpoint cadence). *)
  val create : ?segment:int -> int -> t

  (** Starts a sweep; call before that sweep's {!observe}s, from the
      coordinating domain. *)
  val begin_sweep : t -> unit

  (** [observe t v p] records variable [v]'s Rao-Blackwellized
      conditional for the current sweep. *)
  val observe : t -> int -> float -> unit

  (** Hot-path alternative to {!observe}: a direct view of the current
      sweep's accumulator arrays, letting a tight sampling loop inline
      the Welford + lag-1 update (writing
      [v_mean]/[v_m2]/[v_cross]/[v_prev] exactly as {!observe} would).
      Invalidated by the next {!begin_sweep} — refetch each sweep. *)
  type view = {
    v_mean : float array;
    v_m2 : float array;
    v_inv_count : float;
    v_prev : float array;
    v_cross : float array;
  }

  val view : t -> view

  type report = {
    sweeps : int;
    r_hat : float array;
        (** per variable; NaN until two checkpoint windows exist *)
    ess : float array;
    max_r_hat : float;  (** NaN when any variable's R̂ is incomputable *)
    min_ess : float;
  }

  (** [report t] computes the diagnostics over everything observed so
      far.  Zero-variance (fully determined) variables report R̂ = 1 and
      ESS = n. *)
  val report : t -> report

  (** [satisfied criteria report] — NaN never satisfies, so a chain too
      short to diagnose is never stopped. *)
  val satisfied : criteria -> report -> bool
end
