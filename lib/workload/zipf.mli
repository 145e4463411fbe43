(** Zipf-distributed sampling.

    Web-extracted knowledge bases are heavily skewed: a few relations and
    entities account for most facts.  The generators draw relation usage
    and entity mentions from Zipf distributions to reproduce that skew
    (which is also what stresses the MPP layer's data-collocation
    optimizations). *)

type t

(** [create ~n ~alpha] prepares a sampler over ranks [0, n) with exponent
    [alpha] (≥ 0; 0 is uniform).
    @raise Invalid_argument if [n ≤ 0] or [alpha < 0]. *)
val create : n:int -> alpha:float -> t

(** [sample z rng] draws a rank, 0 being the most likely. *)
val sample : t -> Rng.t -> int

(** [prob z rank] is the probability of [rank]. *)
val prob : t -> int -> float
