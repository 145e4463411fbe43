(* The one clock every measurement uses: CLOCK_MONOTONIC through
   bechamel's stub, in seconds.  Monotonic, so no span is ever negative,
   and system-wide, so timestamps from child processes line up with the
   parent's. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Process CPU time — user plus system, summed over every domain — in
   seconds.  On a shared virtualised host the hypervisor can steal vCPU
   time, which stretches wall-clock spans (by 2x, at times) but is not
   charged here. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let cpu_time f =
  let c0 = cpu () in
  let r = f () in
  (r, cpu () -. c0)
