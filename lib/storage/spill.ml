(* Spill policy: when the fact table crosses the byte threshold, the pn
   MPP executor flushes each of its shards to a segment store under the
   spill root.  One policy value is shared by an engine run; directory
   allocation is atomic so concurrent spills cannot collide. *)

module Table = Relational.Table

let default_segment_rows = Store.default_segment_rows
let default_threshold_bytes = 64 * 1024 * 1024

type t = {
  root : string;
  segment_rows : int;
  threshold_bytes : int;
  counter : int Atomic.t;
}

let create ?(segment_rows = default_segment_rows)
    ?(threshold_bytes = default_threshold_bytes) ~root () =
  if segment_rows < 1 then invalid_arg "Spill.create: segment_rows < 1";
  if threshold_bytes < 0 then invalid_arg "Spill.create: threshold_bytes < 0";
  { root; segment_rows; threshold_bytes; counter = Atomic.make 0 }

let root t = t.root
let segment_rows t = t.segment_rows
let threshold_bytes t = t.threshold_bytes
let should_spill t tbl = Table.byte_size tbl >= t.threshold_bytes

let fresh_dir t ~prefix =
  let n = Atomic.fetch_and_add t.counter 1 in
  Filename.concat t.root (Printf.sprintf "%s-%04d" prefix n)
