(* What one benchmark process measured: scalar metrics, raw samples
   (latencies), output checks as attempted/failed operations, and the
   spans of a traced run.  Child processes print theirs as one JSON line;
   the parent folds them together. *)

module Json = Obs.Json

type t = {
  mutable metrics : (string * float) list;
  mutable samples : (string * float list) list;
  mutable attempted : int;
  mutable failed : int;
  spans : Spans.t;
}

let create ~traced =
  { metrics = []; samples = []; attempted = 0; failed = 0;
    spans = Spans.create ~enabled:traced }

let set t name v = t.metrics <- (name, v) :: List.remove_assoc name t.metrics
let seti t name v = set t name (float_of_int v)
let metric t name = List.assoc_opt name t.metrics
let set_samples t name xs = t.samples <- (name, xs) :: List.remove_assoc name t.samples
let samples t name = Option.value (List.assoc_opt name t.samples) ~default:[]

(* One operation whose output was checked. *)
let check t ok =
  t.attempted <- t.attempted + 1;
  if not ok then t.failed <- t.failed + 1

(* [stage t name f] times one layer call: metric [name ^ "_s"] always,
   a span [name] when tracing. *)
let stage t name f =
  let r, s = Clock.time (fun () -> Spans.with_span t.spans name f) in
  set t (name ^ "_s") s;
  r

(* [op t f] is one timed operation: wall seconds as [op_s], CPU seconds
   as [op_cpu_s]. *)
let op t f =
  let c0 = Clock.cpu () in
  let r, s = Clock.time f in
  set t "op_cpu_s" (Clock.cpu () -. c0);
  set t "op_s" s;
  r

let peak_rss () = float_of_int (Option.value (Obs.peak_rss_bytes ()) ~default:0)

let to_json t =
  Json.Obj
    [
      ("metrics", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) t.metrics));
      ( "samples",
        Json.Obj
          (List.map
             (fun (k, xs) -> (k, Json.List (List.map (fun x -> Json.Float x) xs)))
             t.samples) );
      ("attempted", Json.Int t.attempted);
      ("failed", Json.Int t.failed);
      ("spans", Spans.to_json t.spans);
    ]

let of_json j =
  let obj k = match Json.member k j with Some (Json.Obj kvs) -> kvs | _ -> [] in
  let list j = Option.value (Json.to_list j) ~default:[] in
  let int k = Option.value (Option.bind (Json.member k j) Json.to_int) ~default:0 in
  let spans = Spans.create ~enabled:true in
  Spans.adopt spans ~under:0
    (List.filter_map Spans.span_of_json
       (Option.fold ~none:[] ~some:list (Json.member "spans" j)));
  {
    metrics =
      List.filter_map (fun (k, v) -> Option.map (fun f -> (k, f)) (Json.to_float v)) (obj "metrics");
    samples = List.map (fun (k, v) -> (k, List.filter_map Json.to_float (list v))) (obj "samples");
    attempted = int "attempted";
    failed = int "failed";
    spans;
  }

let print t = print_endline (Json.to_string (to_json t))

(* [run argv] runs a child process of the harness to its end and reads
   what it measured from the last line it printed; [None] when it
   failed. *)
let run argv =
  let ic = Unix.open_process_args_in argv.(0) argv in
  let last = ref "" in
  (try
     while true do
       last := input_line ic
     done
   with End_of_file -> ());
  match (Unix.close_process_in ic, Json.of_string_opt !last) with
  | Unix.WEXITED 0, Some j -> Some (of_json j)
  | _ -> None
