module Json = Json

(* CLOCK_MONOTONIC in seconds: an NTP step cannot make a span negative. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

module Config = struct
  type t = { enabled : bool; retain_spans : int option }

  let disabled = { enabled = false; retain_spans = None }
  let enabled = { enabled = true; retain_spans = None }
  let default = disabled
  let make ?(enabled = false) ?retain_spans () = { enabled; retain_spans }
end

type value = I of int | F of float | S of string

(* --- histograms ------------------------------------------------------

   A fixed log-bucketed histogram: 40 finite buckets whose upper bounds
   double from 1e-6 (1µs up to ~5.5e5 in the recorded unit) plus one
   overflow bucket.  Counts and the sum are integers — the sum is kept in
   micro-units — so merging per-domain histograms is integer addition and
   therefore independent of merge order: the merged result is
   bit-identical for every pool size, unlike a float sum. *)

module Hist = struct
  let lo = 1e-6
  let finite_buckets = 40
  let n_buckets = finite_buckets + 1

  (* Upper bound of finite bucket [i]; bucket 0 holds v <= 1e-6, the
     overflow bucket everything above [bound (finite_buckets - 1)]. *)
  let bound i = lo *. Float.pow 2. (float_of_int i)

  type t = {
    mutable count : int;
    mutable sum_micro : int;  (* sum in 1e-6 units, rounded per sample *)
    buckets : int array;  (* length n_buckets; last is overflow *)
  }

  let create () = { count = 0; sum_micro = 0; buckets = Array.make n_buckets 0 }
  let copy h = { h with buckets = Array.copy h.buckets }

  let micro v =
    if Float.is_finite v then int_of_float (Float.round (v *. 1e6)) else 0

  let bucket_of v =
    if v <= lo then 0 (* NaN falls through every comparison to overflow *)
    else begin
      (* Start from a log2 estimate (may be off by one either way from
         float rounding), then walk up to the first bound >= v. *)
      let est = int_of_float (Float.ceil (Float.log (v /. lo) /. Float.log 2.)) in
      let i = ref (max 0 (min finite_buckets (est - 2))) in
      while !i < finite_buckets && v > bound !i do incr i done;
      !i
    end

  let observe h v =
    h.count <- h.count + 1;
    h.sum_micro <- h.sum_micro + micro v;
    let i = bucket_of v in
    h.buckets.(i) <- h.buckets.(i) + 1

  let merge_into dst src =
    dst.count <- dst.count + src.count;
    dst.sum_micro <- dst.sum_micro + src.sum_micro;
    Array.iteri (fun i c -> dst.buckets.(i) <- dst.buckets.(i) + c) src.buckets

  let count h = h.count
  let sum_micro h = h.sum_micro
  let sum h = float_of_int h.sum_micro /. 1e6
  let buckets h = Array.copy h.buckets
  let equal a b = a.count = b.count && a.sum_micro = b.sum_micro
                  && a.buckets = b.buckets

  (* Rank-interpolated quantile over the bucket bounds; the overflow
     bucket clamps to the last finite bound (there is no upper edge). *)
  let quantile h q =
    if h.count = 0 then Float.nan
    else begin
      let q = Float.max 0. (Float.min 1. q) in
      let rank = q *. float_of_int h.count in
      let rec go i cum =
        if i >= n_buckets then bound (finite_buckets - 1)
        else begin
          let here = h.buckets.(i) in
          let cum' = cum + here in
          if here > 0 && float_of_int cum' >= rank then
            if i >= finite_buckets then bound (finite_buckets - 1)
            else begin
              let lower = if i = 0 then 0. else bound (i - 1) in
              let frac = (rank -. float_of_int cum) /. float_of_int here in
              lower +. (Float.max 0. frac *. (bound i -. lower))
            end
          else go (i + 1) cum'
        end
      in
      go 0 0
    end

  (* Upper bound of the highest occupied bucket (an upper estimate of the
     maximum observation); nan when empty. *)
  let max_value h =
    let rec go i =
      if i < 0 then Float.nan
      else if h.buckets.(i) > 0 then bound (min i (finite_buckets - 1))
      else go (i - 1)
    in
    go (n_buckets - 1)

  (* Sparse encoding: only occupied buckets, keyed by index. *)
  let to_json h =
    let bs = ref [] in
    for i = n_buckets - 1 downto 0 do
      if h.buckets.(i) > 0 then
        bs := (string_of_int i, Json.Int h.buckets.(i)) :: !bs
    done;
    Json.Obj
      [
        ("count", Json.Int h.count);
        ("sum_micro", Json.Int h.sum_micro);
        ("buckets", Json.Obj !bs);
      ]

  let decode_error what = failwith ("Obs.Hist.of_json: malformed " ^ what)

  let of_json j =
    let int k =
      match Option.bind (Json.member k j) Json.to_int with
      | Some v -> v
      | None -> decode_error k
    in
    let h = create () in
    h.count <- int "count";
    h.sum_micro <- int "sum_micro";
    (match Json.member "buckets" j with
    | Some (Json.Obj kvs) ->
      List.iter
        (fun (k, v) ->
          match (int_of_string_opt k, Json.to_int v) with
          | Some i, Some c when i >= 0 && i < n_buckets -> h.buckets.(i) <- c
          | _ -> decode_error "buckets")
        kvs
    | None -> ()
    | Some _ -> decode_error "buckets");
    h
end

let json_of_value = function
  | I i -> Json.Int i
  | F f -> Json.Float f
  | S s -> Json.String s

(* --- live-run snapshots ---------------------------------------------

   A snapshot is one periodic progress record emitted by a long-running
   stage (a grounding iteration, a Gibbs checkpoint).  The deterministic
   payload ([data]) carries counts and step numbers that are identical
   for every pool size; the volatile payload ([perf]) carries wall-clock
   rates and memory figures.  Consumers that diff runs strip [at] and
   [perf] (see {!Snapshot.deterministic_json}). *)

module Snapshot = struct
  type t = {
    seq : int;  (** monotonic per trace *)
    stage : string;  (** "ground" | "mpp" | "gibbs" | ... *)
    point : string;  (** "iteration" | "checkpoint" | ... *)
    step : int;  (** iteration / sweep number *)
    at : float;  (** seconds since the trace was created (volatile) *)
    data : (string * value) list;  (** deterministic fields *)
    perf : (string * value) list;  (** volatile fields: rates, memory *)
  }

  type sink = t -> unit

  let fields_to_json fields =
    Json.Obj (List.map (fun (k, v) -> (k, json_of_value v)) fields)

  let to_json s =
    Json.Obj
      [
        ("seq", Json.Int s.seq);
        ("stage", Json.String s.stage);
        ("point", Json.String s.point);
        ("step", Json.Int s.step);
        ("at", Json.Float s.at);
        ("data", fields_to_json s.data);
        ("perf", fields_to_json s.perf);
      ]

  (* The pool-size-invariant part: everything except [at] and [perf]. *)
  let deterministic_json s =
    Json.Obj
      [
        ("seq", Json.Int s.seq);
        ("stage", Json.String s.stage);
        ("point", Json.String s.point);
        ("step", Json.Int s.step);
        ("data", fields_to_json s.data);
      ]

  let decode_error what = failwith ("Obs.Snapshot.of_json: malformed " ^ what)

  let get what decode j =
    match decode j with Some v -> v | None -> decode_error what

  let fields_of_json what = function
    | None -> []
    | Some (Json.Obj kvs) ->
      List.map
        (fun (k, v) ->
          match v with
          | Json.Int i -> (k, I i)
          | Json.Float f -> (k, F f)
          | Json.String s -> (k, S s)
          | _ -> decode_error what)
        kvs
    | Some _ -> decode_error what

  let of_json j =
    let int k = get k (fun j -> Option.bind (Json.member k j) Json.to_int) j in
    let str k =
      get k (fun j -> Option.bind (Json.member k j) Json.to_string_value) j
    in
    {
      seq = int "seq";
      stage = str "stage";
      point = str "point";
      step = int "step";
      at = get "at" (fun j -> Option.bind (Json.member "at" j) Json.to_float) j;
      data = fields_of_json "data" (Json.member "data" j);
      perf = fields_of_json "perf" (Json.member "perf" j);
    }

  let of_json_string s = of_json (Json.of_string s)

  (* One JSON document per line (NDJSON), flushed so a tail -f (or a
     crashed run) always shows complete records. *)
  let ndjson oc s =
    output_string oc (Json.to_string (to_json s));
    output_char oc '\n';
    flush oc

  let pp_fields ppf fields =
    List.iter
      (fun (k, v) ->
        match v with
        | I i -> Format.fprintf ppf " %s=%d" k i
        | F f -> Format.fprintf ppf " %s=%.4g" k f
        | S v -> Format.fprintf ppf " %s=%s" k v)
      fields

  (* Human ticker: one stderr line per snapshot. *)
  let ticker ppf s =
    Format.fprintf ppf "[%7.2fs] %s %s %d:%a%a@." s.at s.stage s.point s.step
      pp_fields s.data pp_fields s.perf

  let tee sinks s = List.iter (fun f -> f s) sinks
end

(* A plain value, not a [Lazy.t]: forcing one lazy value from two
   domains at once raises [CamlinternalLazy.Undefined] in OCaml 5. *)
let debug =
  match Sys.getenv_opt "PROBKB_DEBUG" with
  | None | Some ("" | "0") -> false
  | Some _ -> true

(* Volatile process stats for snapshot [perf] sections: OCaml heap and
   (when /proc is available) resident set size. *)
let mem_stats () =
  let st = Gc.quick_stat () in
  let gc =
    [
      ("heap_mb", F (float_of_int st.Gc.heap_words *. 8. /. 1e6));
      ("major_gcs", I st.Gc.major_collections);
    ]
  in
  match
    let ic = open_in "/proc/self/statm" in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Scanf.sscanf (input_line ic) "%d %d" (fun _ rss -> rss))
  with
  | rss_pages -> ("rss_mb", F (float_of_int rss_pages *. 4096. /. 1e6)) :: gc
  | exception _ -> gc

(* Peak resident set size, from the VmHWM high-water mark the kernel
   keeps in /proc/self/status.  [None] where /proc is unavailable
   (non-Linux) — callers treat the gauge as best-effort. *)
let peak_rss_bytes () =
  match
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec find () =
          let line = input_line ic in
          if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
            Scanf.sscanf
              (String.sub line 6 (String.length line - 6))
              " %d kB"
              (fun kb -> kb * 1024)
          else find ()
        in
        find ())
  with
  | bytes -> Some bytes
  | exception _ -> None

type span = {
  id : int;
  parent : int; (* -1 = root *)
  name : string;
  cat : string;
  dom : int;
  t0 : float;
  mutable t1 : float;
  mutable attrs : (string * value) list;
  seq : int; (* per-domain recording order *)
}

type buffer = {
  dom_id : int;
  mutable closed : span list; (* newest first *)
  mutable n_closed : int;
  mutable stack : span list; (* open spans on this domain *)
  counters : (string, int ref) Hashtbl.t;
  timers : (string, float ref) Hashtbl.t;
  gauges : (string, (int * float) ref) Hashtbl.t; (* write seq, value *)
  hists : (string, Hist.t) Hashtbl.t;
  mutable seq : int;
}

type registry = { reg_mutex : Mutex.t; mutable all : buffer list }

type t = {
  enabled : bool;
  (* Closed spans kept per domain: [None] is unbounded (batch pipelines
     summarize everything); a long-running server bounds it so the span
     history does not grow without limit.  Counters, timers, gauges and
     histograms are cumulative and unaffected. *)
  retain_spans : int option;
  t_start : float;
  next_id : int Atomic.t;
  gauge_seq : int Atomic.t;
  (* Parent for spans opened on a domain with an empty local stack: worker
     domains inherit the creator domain's innermost open span, so work
     fanned out through the pool nests under the span that submitted it.
     The creator's own spans move it only outside a pool region: while it
     runs its share of a region ([Pool.in_region]), its spans nest by its
     local stack and leave this at the span open at submission — else a
     worker's span would nest under whichever span the creator happened
     to have open. *)
  ambient_parent : int Atomic.t;
  creator_dom : int;
  registry : registry;
  key : buffer Domain.DLS.key;
  (* Live-run snapshot stream.  Independent of [enabled]: a sink can be
     installed on a disabled trace, so `--snapshots` works without paying
     for span recording.  Snapshots are emitted from single-threaded
     points (between pool barriers), so an atomic ref suffices. *)
  snapshot_sink : Snapshot.sink option Atomic.t;
  snapshot_seq : int Atomic.t;
}

type trace = t

let fresh_buffer dom_id =
  {
    dom_id;
    closed = [];
    n_closed = 0;
    stack = [];
    counters = Hashtbl.create 16;
    timers = Hashtbl.create 16;
    gauges = Hashtbl.create 8;
    hists = Hashtbl.create 8;
    seq = 0;
  }

let make_trace ?retain_spans enabled =
  let registry = { reg_mutex = Mutex.create (); all = [] } in
  let key =
    Domain.DLS.new_key (fun () ->
        let b = fresh_buffer (Domain.self () :> int) in
        Mutex.lock registry.reg_mutex;
        registry.all <- b :: registry.all;
        Mutex.unlock registry.reg_mutex;
        b)
  in
  {
    enabled;
    retain_spans;
    t_start = now ();
    next_id = Atomic.make 1;
    gauge_seq = Atomic.make 0;
    ambient_parent = Atomic.make (-1);
    creator_dom = (Domain.self () :> int);
    registry;
    key;
    snapshot_sink = Atomic.make None;
    snapshot_seq = Atomic.make 0;
  }

let create ?(config = Config.default) () =
  make_trace ?retain_spans:config.Config.retain_spans config.Config.enabled

let null = make_trace false
let enabled t = t.enabled

(* --- snapshot emission ---------------------------------------------- *)

(* [null] is shared process-wide; installing a sink on it would leak the
   stream into every uninstrumented pipeline, so it is refused. *)
let set_snapshot_sink t sink =
  if t != null then Atomic.set t.snapshot_sink sink

let snapshots_enabled t = Atomic.get t.snapshot_sink <> None

let snapshot t ~stage ~point ~step ?(perf = []) data =
  match Atomic.get t.snapshot_sink with
  | None -> ()
  | Some sink ->
    sink
      {
        Snapshot.seq = Atomic.fetch_and_add t.snapshot_seq 1;
        stage;
        point;
        step;
        at = now () -. t.t_start;
        data;
        perf;
      }

(* --- ambient context -------------------------------------------------

   Deep operators (hash joins, distincts) sit far below any API that
   could reasonably thread a trace argument; they read the process-wide
   ambient trace instead.  The engine installs its trace for the duration
   of a pipeline stage.  The ambient trace is only ever set from the
   domain that owns the enclosing stage, before any parallel region
   starts, so a plain atomic is enough. *)

let ambient_trace = Atomic.make null
let ambient () = Atomic.get ambient_trace
let set_ambient t = Atomic.set ambient_trace t

let with_ambient t f =
  let saved = Atomic.get ambient_trace in
  Atomic.set ambient_trace t;
  Fun.protect ~finally:(fun () -> Atomic.set ambient_trace saved) f

(* --- spans --- *)

type sp = No_span | Sp of span

let begin_span ?(cat = "") t name =
  if not t.enabled then No_span
  else begin
    let b = Domain.DLS.get t.key in
    let parent =
      match b.stack with
      | s :: _ -> s.id
      | [] -> Atomic.get t.ambient_parent
    in
    let s =
      {
        id = Atomic.fetch_and_add t.next_id 1;
        parent;
        name;
        cat;
        dom = b.dom_id;
        t0 = now ();
        t1 = Float.nan;
        attrs = [];
        seq = b.seq;
      }
    in
    b.seq <- b.seq + 1;
    b.stack <- s :: b.stack;
    if b.dom_id = t.creator_dom && not (Pool.in_region ()) then
      Atomic.set t.ambient_parent s.id;
    Sp s
  end

let set_attr sp name v =
  match sp with
  | No_span -> ()
  | Sp s -> s.attrs <- (name, v) :: List.remove_assoc name s.attrs

let end_span ?(attrs = []) t sp =
  match sp with
  | No_span -> ()
  | Sp s ->
    let b = Domain.DLS.get t.key in
    s.t1 <- now ();
    s.attrs <- List.rev attrs @ s.attrs;
    (* Pop the local stack down to (and including) [s]; spans must be
       ended on the domain that began them, innermost first. *)
    let rec pop = function
      | top :: rest when top.id = s.id -> rest
      | _ :: rest -> pop rest
      | [] -> []
    in
    b.stack <- pop b.stack;
    b.closed <- s :: b.closed;
    b.n_closed <- b.n_closed + 1;
    (* Amortized truncation: let the list grow to twice the cap, then
       keep the newest [cap] (one O(cap) pass per cap closures). *)
    (match t.retain_spans with
    | Some cap when b.n_closed > 2 * cap ->
      let rec take n acc = function
        | x :: rest when n > 0 -> take (n - 1) (x :: acc) rest
        | _ -> List.rev acc
      in
      b.closed <- take cap [] b.closed;
      b.n_closed <- cap
    | _ -> ());
    if b.dom_id = t.creator_dom && not (Pool.in_region ()) then
      Atomic.set t.ambient_parent s.parent

let with_span ?cat ?(attrs = []) t name f =
  if not t.enabled then f ()
  else begin
    let sp = begin_span ?cat t name in
    match f () with
    | result ->
      end_span ~attrs t sp;
      result
    | exception e ->
      end_span ~attrs:(("error", S (Printexc.to_string e)) :: attrs) t sp;
      raise e
  end

(* --- recorded span subtrees ------------------------------------------

   A materialized copy of a closed span and its same-domain descendants,
   for structured logging (the serving layer's slow-query log).  Only
   spans closed on the domain that ran the root are collected — work
   fanned out through the pool is summarized by the request's own
   duration, not expanded. *)

module Rec_span = struct
  type t = {
    name : string;
    cat : string;
    seconds : float;
    attrs : (string * value) list;
    children : t list;
  }

  let rec to_json r =
    Json.Obj
      ([ ("name", Json.String r.name); ("seconds", Json.Float r.seconds) ]
      @ (if r.cat = "" then [] else [ ("cat", Json.String r.cat) ])
      @ (if r.attrs = [] then []
         else
           [
             ( "attrs",
               Json.Obj (List.map (fun (k, v) -> (k, json_of_value v)) r.attrs)
             );
           ])
      @
      if r.children = [] then []
      else [ ("children", Json.List (List.map to_json r.children)) ])
end

(* Span ids are allocated at [begin_span] from one global counter, so on
   a single domain ids increase with begin time; every span begun and
   closed while [root] was open on this domain is a descendant (the stack
   parenting rule).  In the newest-first closed list those descendants
   form the contiguous block right behind [root]'s own entry.  Call this
   promptly after [end_span], on the same domain, before retention
   truncation can drop the block. *)
let subtree t sp =
  match sp with
  | No_span -> None
  | Sp root ->
    let b = Domain.DLS.get t.key in
    let rec find = function
      | s :: rest when s.id = root.id -> Some rest
      | s :: rest when s.id > root.id -> find rest
      | _ -> None
    in
    (match find b.closed with
    | None -> None
    | Some behind ->
      let rec take acc = function
        | s :: rest when s.id > root.id -> take (s :: acc) rest
        | _ -> acc
      in
      let desc = take [] behind in
      let children_of pid = List.filter (fun s -> s.parent = pid) desc in
      let seconds s = if Float.is_nan s.t1 then 0. else s.t1 -. s.t0 in
      let rec build s =
        {
          Rec_span.name = s.name;
          cat = s.cat;
          seconds = seconds s;
          attrs = List.rev s.attrs;
          children = List.map build (children_of s.id);
        }
      in
      Some (build root))

(* --- counters / timers / gauges --- *)

let add t name n =
  if t.enabled && n <> 0 then begin
    let b = Domain.DLS.get t.key in
    match Hashtbl.find_opt b.counters name with
    | Some r -> r := !r + n
    | None -> Hashtbl.replace b.counters name (ref n)
  end

let incr t name = add t name 1

let add_time t name s =
  if t.enabled && s <> 0. then begin
    let b = Domain.DLS.get t.key in
    match Hashtbl.find_opt b.timers name with
    | Some r -> r := !r +. s
    | None -> Hashtbl.replace b.timers name (ref s)
  end

let gauge t name v =
  if t.enabled then begin
    let b = Domain.DLS.get t.key in
    let seq = Atomic.fetch_and_add t.gauge_seq 1 in
    match Hashtbl.find_opt b.gauges name with
    | Some r -> r := (seq, v)
    | None -> Hashtbl.replace b.gauges name (ref (seq, v))
  end

let gauge_max t name v =
  if t.enabled then begin
    let b = Domain.DLS.get t.key in
    match Hashtbl.find_opt b.gauges name with
    | Some r ->
      let seq, prev = !r in
      if v > prev then r := (seq, v)
    | None ->
      Hashtbl.replace b.gauges name
        (ref (Atomic.fetch_and_add t.gauge_seq 1, v))
  end

let observe t name v =
  if t.enabled then begin
    let b = Domain.DLS.get t.key in
    match Hashtbl.find_opt b.hists name with
    | Some h -> Hist.observe h v
    | None ->
      let h = Hist.create () in
      Hist.observe h v;
      Hashtbl.replace b.hists name h
  end

let timed t name f =
  if not t.enabled then f ()
  else begin
    let t0 = now () in
    Fun.protect ~finally:(fun () -> add_time t name (now () -. t0)) f
  end

(* --- merging -------------------------------------------------------- *)

let buffers t =
  Mutex.lock t.registry.reg_mutex;
  let all = t.registry.all in
  Mutex.unlock t.registry.reg_mutex;
  all

(* Closed spans from every domain, oldest first, with a deterministic
   tie-break (domain id, per-domain sequence). *)
let all_spans t =
  let spans =
    List.concat_map (fun b -> b.closed) (buffers t) |> Array.of_list
  in
  Array.sort
    (fun a b ->
      match Float.compare a.t0 b.t0 with
      | 0 -> compare (a.dom, a.seq) (b.dom, b.seq)
      | c -> c)
    spans;
  spans

(* "iteration 10" must sort after "iteration 2": compare mixed strings by
   alternating text and numeric runs. *)
let natural_compare a b =
  let len_a = String.length a and len_b = String.length b in
  let is_digit c = c >= '0' && c <= '9' in
  let rec go i j =
    if i >= len_a && j >= len_b then 0
    else if i >= len_a then -1
    else if j >= len_b then 1
    else if is_digit a.[i] && is_digit b.[j] then begin
      let rec num s k len = if k < len && is_digit s.[k] then num s (k + 1) len else k in
      let i' = num a i len_a and j' = num b j len_b in
      let na = int_of_string (String.sub a i (i' - i))
      and nb = int_of_string (String.sub b j (j' - j)) in
      match compare na nb with 0 -> go i' j' | c -> c
    end
    else
      match Char.compare a.[i] b.[j] with 0 -> go (i + 1) (j + 1) | c -> c
  in
  go 0 0

module Summary = struct
  type node = {
    name : string;
    count : int;
    seconds : float;
    children : node list;
  }

  type t = {
    total_seconds : float;
    spans : node list;
    counters : (string * int) list;
    timers : (string * float) list;
    gauges : (string * float) list;
    hists : (string * Hist.t) list;
  }

  let empty =
    {
      total_seconds = 0.;
      spans = [];
      counters = [];
      timers = [];
      gauges = [];
      hists = [];
    }

  (* Aggregation node under construction. *)
  type agg = {
    mutable a_count : int;
    mutable a_seconds : float;
    a_children : (string, agg) Hashtbl.t;
  }

  let fresh_agg () =
    { a_count = 0; a_seconds = 0.; a_children = Hashtbl.create 4 }

  let rec finalize name agg =
    let children =
      Hashtbl.fold (fun n a acc -> finalize n a :: acc) agg.a_children []
      |> List.sort (fun a b -> natural_compare a.name b.name)
    in
    { name; count = agg.a_count; seconds = agg.a_seconds; children }

  let of_trace trace =
    if not (enabled trace) then empty
    else begin
      let spans = all_spans trace in
      let by_id = Hashtbl.create (Array.length spans) in
      Array.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
      (* Path of a span: names from the root down.  A parent that was
         never closed (or predates the snapshot) roots the chain. *)
      let rec path s =
        match Hashtbl.find_opt by_id s.parent with
        | Some p -> s.name :: path p
        | None -> [ s.name ]
      in
      let root = fresh_agg () in
      Array.iter
        (fun s ->
          let rev_path = List.rev (path s) in
          let node =
            List.fold_left
              (fun agg name ->
                match Hashtbl.find_opt agg.a_children name with
                | Some child -> child
                | None ->
                  let child = fresh_agg () in
                  Hashtbl.replace agg.a_children name child;
                  child)
              root rev_path
          in
          node.a_count <- node.a_count + 1;
          node.a_seconds <- node.a_seconds +. (s.t1 -. s.t0))
        spans;
      let tree = finalize "" root in
      let sorted_list of_tbl =
        List.concat_map
          (fun b -> of_tbl b)
          (buffers trace)
      in
      let counters =
        let merged = Hashtbl.create 16 in
        List.iter
          (fun (k, v) ->
            Hashtbl.replace merged k
              (v + Option.value ~default:0 (Hashtbl.find_opt merged k)))
          (sorted_list (fun b ->
               Hashtbl.fold (fun k r acc -> (k, !r) :: acc) b.counters []));
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) merged []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      let timers =
        let merged = Hashtbl.create 16 in
        List.iter
          (fun (k, v) ->
            Hashtbl.replace merged k
              (v +. Option.value ~default:0. (Hashtbl.find_opt merged k)))
          (sorted_list (fun b ->
               Hashtbl.fold (fun k r acc -> (k, !r) :: acc) b.timers []));
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) merged []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      let gauges =
        let merged = Hashtbl.create 8 in
        List.iter
          (fun (k, (seq, v)) ->
            match Hashtbl.find_opt merged k with
            | Some (seq', _) when seq' > seq -> ()
            | _ -> Hashtbl.replace merged k (seq, v))
          (sorted_list (fun b ->
               Hashtbl.fold (fun k r acc -> (k, !r) :: acc) b.gauges []));
        Hashtbl.fold (fun k (_, v) acc -> (k, v) :: acc) merged []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      let hists =
        (* Integer merge: element-wise sums are independent of buffer
           order, so the merged histogram is bit-identical at any pool
           size. *)
        let merged = Hashtbl.create 8 in
        List.iter
          (fun (k, h) ->
            match Hashtbl.find_opt merged k with
            | Some m -> Hist.merge_into m h
            | None -> Hashtbl.replace merged k (Hist.copy h))
          (sorted_list (fun b ->
               Hashtbl.fold (fun k h acc -> (k, h) :: acc) b.hists []));
        Hashtbl.fold (fun k h acc -> (k, h) :: acc) merged []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      let total_seconds =
        List.fold_left (fun acc n -> acc +. n.seconds) 0. tree.children
      in
      { total_seconds; spans = tree.children; counters; timers; gauges; hists }
    end

  (* --- JSON ---------------------------------------------------------- *)

  let rec node_to_json n =
    Json.Obj
      ([
         ("name", Json.String n.name);
         ("count", Json.Int n.count);
         ("seconds", Json.Float n.seconds);
       ]
      @
      if n.children = [] then []
      else [ ("children", Json.List (List.map node_to_json n.children)) ])

  let to_json t =
    Json.Obj
      [
        ("total_seconds", Json.Float t.total_seconds);
        ("spans", Json.List (List.map node_to_json t.spans));
        ( "counters",
          Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) t.counters) );
        ( "timers",
          Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) t.timers) );
        ( "gauges",
          Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) t.gauges) );
        ( "hists",
          Json.Obj (List.map (fun (k, h) -> (k, Hist.to_json h)) t.hists) );
      ]

  let decode_error what = failwith ("Obs.Summary.of_json: malformed " ^ what)

  let get what decode j =
    match decode j with Some v -> v | None -> decode_error what

  let rec node_of_json j =
    let name =
      get "span name"
        (fun j -> Option.bind (Json.member "name" j) Json.to_string_value)
        j
    in
    let count =
      get "span count" (fun j -> Option.bind (Json.member "count" j) Json.to_int) j
    in
    let seconds =
      get "span seconds"
        (fun j -> Option.bind (Json.member "seconds" j) Json.to_float)
        j
    in
    let children =
      match Json.member "children" j with
      | None -> []
      | Some (Json.List l) -> List.map node_of_json l
      | Some _ -> decode_error "span children"
    in
    { name; count; seconds; children }

  let assoc_of_json what decode j =
    match j with
    | Some (Json.Obj fields) ->
      List.map (fun (k, v) -> (k, get what decode v)) fields
    | None -> []
    | Some _ -> decode_error what

  let of_json j =
    let total_seconds =
      get "total_seconds"
        (fun j -> Option.bind (Json.member "total_seconds" j) Json.to_float)
        j
    in
    let spans =
      match Json.member "spans" j with
      | Some (Json.List l) -> List.map node_of_json l
      | None -> []
      | Some _ -> decode_error "spans"
    in
    {
      total_seconds;
      spans;
      counters = assoc_of_json "counters" Json.to_int (Json.member "counters" j);
      timers = assoc_of_json "timers" Json.to_float (Json.member "timers" j);
      gauges = assoc_of_json "gauges" Json.to_float (Json.member "gauges" j);
      hists =
        assoc_of_json "hists"
          (fun j -> try Some (Hist.of_json j) with Failure _ -> None)
          (Json.member "hists" j);
    }

  let of_json_string s = of_json (Json.of_string s)

  (* --- lookup -------------------------------------------------------- *)

  let find t path =
    let rec go nodes = function
      | [] -> None
      | [ name ] -> List.find_opt (fun n -> n.name = name) nodes
      | name :: rest ->
        Option.bind
          (List.find_opt (fun n -> n.name = name) nodes)
          (fun n -> go n.children rest)
    in
    go t.spans path

  let counter t name =
    Option.value ~default:0 (List.assoc_opt name t.counters)

  let gauge t name = List.assoc_opt name t.gauges
  let hist t name = List.assoc_opt name t.hists

  (* --- rendering ----------------------------------------------------- *)

  let rec pp_node ppf ~depth n =
    Format.fprintf ppf "%s%-*s %5dx %9.3fs@,"
      (String.make (2 * depth) ' ')
      (max 1 (34 - (2 * depth)))
      n.name n.count n.seconds;
    List.iter (pp_node ppf ~depth:(depth + 1)) n.children

  let pp ppf t =
    Format.fprintf ppf "@[<v>";
    if t.spans = [] then Format.fprintf ppf "(no spans recorded)@,"
    else begin
      Format.fprintf ppf "span tree (%.3fs total):@," t.total_seconds;
      List.iter (pp_node ppf ~depth:1) t.spans
    end;
    if t.counters <> [] then begin
      Format.fprintf ppf "counters:@,";
      List.iter
        (fun (k, v) -> Format.fprintf ppf "  %-34s %12d@," k v)
        t.counters
    end;
    if t.timers <> [] then begin
      Format.fprintf ppf "timers:@,";
      List.iter
        (fun (k, v) -> Format.fprintf ppf "  %-34s %11.3fs@," k v)
        t.timers
    end;
    if t.gauges <> [] then begin
      Format.fprintf ppf "gauges:@,";
      List.iter
        (fun (k, v) -> Format.fprintf ppf "  %-34s %12.3f@," k v)
        t.gauges
    end;
    if t.hists <> [] then begin
      Format.fprintf ppf "histograms:@,";
      List.iter
        (fun (k, h) ->
          Format.fprintf ppf "  %-34s %8dx p50=%.4g p99=%.4g@," k
            (Hist.count h) (Hist.quantile h 0.5) (Hist.quantile h 0.99))
        t.hists
    end;
    Format.fprintf ppf "@]"
end

(* --- Chrome trace_event export -------------------------------------- *)

let chrome_trace_json t =
  let spans = all_spans t in
  let events =
    Array.to_list spans
    |> List.map (fun s ->
           let us x = Float.round (x *. 1e6) in
           Json.Obj
             ([
                ("name", Json.String s.name);
                ( "cat",
                  Json.String (if s.cat = "" then "probkb" else s.cat) );
                ("ph", Json.String "X");
                ("ts", Json.Float (us (s.t0 -. t.t_start)));
                ("dur", Json.Float (us (s.t1 -. s.t0)));
                ("pid", Json.Int 1);
                ("tid", Json.Int s.dom);
              ]
             @
             if s.attrs = [] then []
             else
               [
                 ( "args",
                   Json.Obj
                     (List.rev_map
                        (fun (k, v) -> (k, json_of_value v))
                        s.attrs) );
               ]))
  in
  Json.Obj
    [
      ("traceEvents", Json.List events);
      ("displayTimeUnit", Json.String "ms");
    ]

let write_chrome_trace t oc =
  output_string oc (Json.to_pretty_string (chrome_trace_json t))
