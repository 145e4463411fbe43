type t = { cdf : float array }

let create ~n ~alpha =
  if n <= 0 then invalid_arg "Zipf.create: n must be positive";
  if alpha < 0. then invalid_arg "Zipf.create: alpha must be >= 0";
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. (1. /. Float.pow (float_of_int (i + 1)) alpha);
    cdf.(i) <- !acc
  done;
  let z = !acc in
  for i = 0 to n - 1 do
    cdf.(i) <- cdf.(i) /. z
  done;
  { cdf }

let sample z rng =
  let u = Rng.float rng 1. in
  (* Binary search for the first rank whose CDF is >= u. *)
  let lo = ref 0 and hi = ref (Array.length z.cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if z.cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

let prob z rank =
  if rank = 0 then z.cdf.(0) else z.cdf.(rank) -. z.cdf.(rank - 1)
