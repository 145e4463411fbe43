(** A fixed-size domain pool for shared-memory parallelism.

    OCaml 5 gives the runtime real parallelism through [Domain]s; this
    module owns a small set of long-lived worker domains and hands them
    chunked work: the probe side of a partitioned hash join, the colour
    classes of the chromatic Gibbs schedule, the per-segment plans of the
    simulated MPP cluster.

    Design constraints, in order:

    - A pool of size 1 spawns no domains and runs every submission inline
      on the caller, so the default configuration ([PROBKB_DOMAINS] unset)
      is byte-for-byte the old single-threaded engine.
    - Submissions are synchronous barriers: when {!run}, {!parallel_for}
      or {!map_reduce} returns, all work (and all its writes) is visible
      to the caller — the mutex handoff provides the happens-before edge.
    - The pool is not reentrant.  A nested submission (a parallel join
      issued from inside a parallel grounding query) detects that the pool
      is busy and degrades to inline sequential execution instead of
      deadlocking.
    - Worker domains are spawned lazily on the first real submission, so
      merely creating (or defaulting) a pool costs nothing. *)

type t

(** [create n] is a pool that runs submissions on [n] domains ([n - 1]
    workers plus the submitting domain).  [n <= 1] gives the inline pool.
    Workers are spawned on first use; if the runtime refuses a spawn (it
    caps live domains at 128), the pool degrades to the workers it got —
    the missing worker indexes run on the caller — rather than raising.
    @raise Invalid_argument if [n < 1] or [n > 1024]. *)
val create : int -> t

(** [size t] is the number of domains the pool schedules over (>= 1). *)
val size : t -> int

(** [shutdown t] stops and joins the worker domains.  Subsequent
    submissions run inline sequentially.  Idempotent. *)
val shutdown : t -> unit

(** [run t f] executes [f w] for every worker index [w] in
    [0 .. size t - 1], [f 0] on the calling domain, and waits for all of
    them.  If any [f w] raises, one of the exceptions is re-raised after
    the barrier.  If the pool is busy (nested submission) or stopped, the
    calls run inline sequentially. *)
val run : t -> (int -> unit) -> unit

(** [in_region ()] is [true] while the calling domain runs its own share
    of a {!run} region ([f 0], and any worker indexes it covers) while
    worker domains run theirs.  A size-1 pool and a nested (inline)
    submission run no workers, so they leave it as it was. *)
val in_region : unit -> bool

(** [parallel_for t ~n f] executes [f i] for every [i] in [0 .. n - 1],
    dynamically scheduled over the pool.  The iterations must be
    independent (write disjoint state); their execution order is
    unspecified. *)
val parallel_for : t -> n:int -> (int -> unit) -> unit

(** [map_reduce t ~n ~map ~fold ~init] computes
    [fold (... (fold init (map 0)) ...) (map (n - 1))]: the [map]s run in
    parallel over the pool, the [fold] runs on the calling domain in
    index order, so the result is deterministic whenever [map] is. *)
val map_reduce :
  t -> n:int -> map:(int -> 'a) -> fold:('acc -> 'a -> 'acc) -> init:'acc ->
  'acc

(** [env_domains ()] is the pool size requested by the [PROBKB_DOMAINS]
    environment variable; 1 when unset or unparsable, clamped to the
    runtime's 128-domain limit. *)
val env_domains : unit -> int

(** [get_default ()] is the process-wide pool, created on first use with
    {!env_domains} domains.  The relational operators, the chromatic
    sampler and the MPP executor all draw on it unless handed an explicit
    pool. *)
val get_default : unit -> t

(** [set_default_size n] replaces the process-wide pool with a fresh pool
    of [n] domains, shutting the previous one down.  Used by the benchmark
    harness to sweep domain counts inside one process. *)
val set_default_size : int -> unit
