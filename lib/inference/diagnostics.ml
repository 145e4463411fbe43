module Fgraph = Factor_graph.Fgraph

type report = {
  r_hat : float array;
  max_r_hat : float;
  chains : int;
  samples_per_chain : int;
}

(* One chain: per-variable running mean and M2 (Welford) over the
   Rao-Blackwellized conditional at each update. *)
let run_chain c (options : Gibbs.options) seed =
  let n = Fgraph.nvars c in
  let rng = Random.State.make [| seed |] in
  let assignment = Array.init n (fun _ -> Random.State.bool rng) in
  let mean = Array.make n 0. and m2 = Array.make n 0. in
  let count = ref 0 in
  let out = { Gibbs.value = 0. } in
  let sweep estimate =
    for v = 0 to n - 1 do
      Gibbs.conditional c assignment v out;
      let p1 = out.value in
      assignment.(v) <- Random.State.float rng 1. < p1;
      if estimate then begin
        let d = p1 -. mean.(v) in
        mean.(v) <- mean.(v) +. (d /. float_of_int !count);
        m2.(v) <- m2.(v) +. (d *. (p1 -. mean.(v)))
      end
    done
  in
  for _ = 1 to options.Gibbs.burn_in do
    sweep false
  done;
  for _ = 1 to options.Gibbs.samples do
    incr count;
    sweep true
  done;
  let samples = float_of_int (max 1 options.Gibbs.samples) in
  (mean, Array.map (fun s -> s /. Float.max 1. (samples -. 1.)) m2)

let r_hat ?(chains = 4) ?(options = Gibbs.default_options) c =
  if chains < 2 then invalid_arg "Diagnostics.r_hat: need at least 2 chains";
  let n = Fgraph.nvars c in
  let per_chain =
    List.init chains (fun i -> run_chain c options (options.Gibbs.seed + (7919 * (i + 1))))
  in
  let m = float_of_int chains in
  let samples = float_of_int (max 2 options.Gibbs.samples) in
  let r = Array.make n 1. in
  for v = 0 to n - 1 do
    let means = List.map (fun (mean, _) -> mean.(v)) per_chain in
    let vars = List.map (fun (_, var) -> var.(v)) per_chain in
    let grand = List.fold_left ( +. ) 0. means /. m in
    let b =
      samples /. (m -. 1.)
      *. List.fold_left (fun acc mu -> acc +. ((mu -. grand) ** 2.)) 0. means
    in
    let w = List.fold_left ( +. ) 0. vars /. m in
    if w > 1e-12 then begin
      let var_plus = (((samples -. 1.) /. samples) *. w) +. (b /. samples) in
      r.(v) <- sqrt (var_plus /. w)
    end
  done;
  {
    r_hat = r;
    max_r_hat = Array.fold_left Float.max 1. r;
    chains;
    samples_per_chain = options.Gibbs.samples;
  }

let converged ?(threshold = 1.1) report = report.max_r_hat < threshold

(* --- online (single-run) diagnostics --------------------------------

   The offline [r_hat] above answers "can I stop?" by running four fresh
   chains — a 4x cost multiplier on inference.  The online estimator
   answers it incrementally on the one chain the sampler is already
   running: per-variable Welford mean/variance accumulated in fixed-size
   segments (one per checkpoint window), split-R̂ computed by merging the
   first-half segments against the second-half segments (Chan's parallel
   variance combination, exact), and effective sample size from the
   lag-1 autocorrelation of the Rao-Blackwellized conditionals
   (AR(1) approximation: ESS = n (1-ρ₁)/(1+ρ₁)).

   All state is per-variable arrays: under the chromatic schedule each
   variable is updated by exactly one chunk per sweep, so parallel
   [observe] calls write disjoint indices and the result is bit-identical
   for every pool size. *)

module Online = struct
  type criteria = { target_r_hat : float; min_ess : float }

  let default_criteria = { target_r_hat = 1.05; min_ess = 100. }

  type seg = {
    s_mean : float array;
    s_m2 : float array;
    mutable s_count : int; (* sweeps observed into this segment *)
  }

  type t = {
    n : int;
    seg_len : int;
    mutable segs : seg list; (* newest first; the head is [cur] *)
    mutable cur : seg; (* hot-path alias of [List.hd segs] *)
    mutable inv_count : float; (* 1 / cur.s_count, refreshed per sweep *)
    mutable sweeps : int;
    prev : float array; (* last observed value per variable *)
    cross : float array; (* Σ x_t · x_{t-1} *)
  }

  (* Before the first [begin_sweep] the current segment is a zero-length
     sentinel: any [observe] then raises on the array access. *)
  let sentinel =
    { s_mean = [||]; s_m2 = [||]; s_count = 0 }

  let create ?(segment = 20) n =
    if segment < 1 then invalid_arg "Diagnostics.Online.create: segment < 1";
    {
      n;
      seg_len = segment;
      segs = [];
      cur = sentinel;
      inv_count = 0.;
      sweeps = 0;
      prev = Array.make n 0.;
      cross = Array.make n 0.;
    }

  let sweeps t = t.sweeps

  (* Must be called before the sweep's [observe]s, from the coordinating
     domain (it may allocate a fresh segment). *)
  let begin_sweep t =
    t.sweeps <- t.sweeps + 1;
    (match t.segs with
    | s :: _ when s.s_count < t.seg_len -> s.s_count <- s.s_count + 1
    | _ ->
      let s =
        {
          s_mean = Array.make t.n 0.;
          s_m2 = Array.make t.n 0.;
          s_count = 1;
        }
      in
      t.segs <- s :: t.segs;
      t.cur <- s);
    t.inv_count <- 1. /. float_of_int t.cur.s_count

  (* Branch-free on the hot path: the sentinel makes the missing
     [begin_sweep] case an array bounds error, and the lag-1 cross term
     needs no first-sweep guard because [prev] starts at zero, so the
     first contribution is exactly 0. *)
  let observe t v x =
    let s = t.cur in
    let d = x -. s.s_mean.(v) in
    let m = s.s_mean.(v) +. (d *. t.inv_count) in
    s.s_mean.(v) <- m;
    s.s_m2.(v) <- s.s_m2.(v) +. (d *. (x -. m));
    t.cross.(v) <- t.cross.(v) +. (x *. t.prev.(v));
    t.prev.(v) <- x

  (* A per-sweep snapshot of the accumulator arrays, so a tight sampling
     loop can inline the [observe] update instead of paying a
     cross-module call per variable.  Valid until the next [begin_sweep]
     (a segment roll swaps the mean/M2 arrays). *)
  type view = {
    v_mean : float array;
    v_m2 : float array;
    v_inv_count : float;
    v_prev : float array;
    v_cross : float array;
  }

  let view t =
    {
      v_mean = t.cur.s_mean;
      v_m2 = t.cur.s_m2;
      v_inv_count = t.inv_count;
      v_prev = t.prev;
      v_cross = t.cross;
    }

  type report = {
    sweeps : int;
    r_hat : float array; (* NaN until two full checkpoint windows exist *)
    ess : float array;
    max_r_hat : float;
    min_ess : float;
  }

  (* Chan et al.: exact combination of two (mean, M2, count) summaries. *)
  let combine (m1, s1, n1) (m2, s2, n2) =
    if n1 = 0. then (m2, s2, n2)
    else if n2 = 0. then (m1, s1, n1)
    else begin
      let n = n1 +. n2 in
      let d = m2 -. m1 in
      (m1 +. (d *. n2 /. n), s1 +. s2 +. (d *. d *. n1 *. n2 /. n), n)
    end

  let zero_var = 1e-12

  let report t =
    let segs = Array.of_list (List.rev t.segs) in
    let k = Array.length segs in
    let r = Array.make t.n Float.nan in
    let ess = Array.make t.n Float.nan in
    let half = k / 2 in
    let merge v lo hi =
      let acc = ref (0., 0., 0.) in
      for s = lo to hi - 1 do
        acc :=
          combine !acc
            ( segs.(s).s_mean.(v),
              segs.(s).s_m2.(v),
              float_of_int segs.(s).s_count )
      done;
      !acc
    in
    for v = 0 to t.n - 1 do
      let mean_a, m2_a, n_a = merge v 0 half in
      let mean_b, m2_b, n_b = merge v half k in
      let mean, m2, nf = combine (mean_a, m2_a, n_a) (mean_b, m2_b, n_b) in
      let var = if nf > 1. then m2 /. (nf -. 1.) else 0. in
      if var < zero_var then begin
        (* Fully determined variable: converged by construction. *)
        r.(v) <- 1.;
        ess.(v) <- nf
      end
      else begin
        (* Split-R̂ over the two halves (m = 2 chains). *)
        if k >= 2 && n_a > 1. && n_b > 1. then begin
          let nc = Float.min n_a n_b in
          let grand = (mean_a +. mean_b) /. 2. in
          let b =
            nc
            *. (((mean_a -. grand) ** 2.) +. ((mean_b -. grand) ** 2.))
          in
          let w =
            ((m2_a /. (n_a -. 1.)) +. (m2_b /. (n_b -. 1.))) /. 2.
          in
          if w > zero_var then begin
            let var_plus = (((nc -. 1.) /. nc) *. w) +. (b /. nc) in
            r.(v) <- sqrt (var_plus /. w)
          end
          else r.(v) <- 1.
        end;
        (* AR(1) ESS from the online lag-1 cross-moment. *)
        if nf > 1. then begin
          let pairs = nf -. 1. in
          let rho =
            ((t.cross.(v) /. pairs) -. (mean *. mean)) /. var
          in
          let rho = Float.max (-0.9999) (Float.min 0.9999 rho) in
          ess.(v) <- Float.max 1. (Float.min nf (nf *. (1. -. rho) /. (1. +. rho)))
        end
      end
    done;
    (* Float.max/min propagate NaN, so one incomputable variable makes
       the aggregate incomputable — exactly what the stop check needs. *)
    let max_r = Array.fold_left Float.max Float.neg_infinity r in
    let min_e = Array.fold_left Float.min Float.infinity ess in
    {
      sweeps = t.sweeps;
      r_hat = r;
      ess;
      max_r_hat = (if t.n = 0 then 1. else max_r);
      min_ess = (if t.n = 0 then Float.infinity else min_e);
    }

  (* NaN comparisons are false, so an incomputable R̂ (fewer than two
     checkpoint windows) never satisfies the stop criteria. *)
  let satisfied criteria report =
    report.max_r_hat <= criteria.target_r_hat
    && report.min_ess >= criteria.min_ess
end
