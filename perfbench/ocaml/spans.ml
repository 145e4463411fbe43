(* Benchmark-side tracing: spans recorded around calls into each layer's
   public functions, kept in memory and written out when the run ends.
   A span carries its name, start, end and parent, plus the GC work done
   inside it ([Gc.quick_stat] deltas).  A disabled recorder runs the
   wrapped call and records nothing. *)

module Json = Obs.Json

type span = {
  id : int;
  parent : int;  (** 0 for a root *)
  name : string;
  start : float;
  stop : float;
  minor_words : float;
  major_collections : int;
}

type t = {
  enabled : bool;
  mutable next : int;
  mutable stack : int list;
  mutable spans : span list;
}

let create ~enabled = { enabled; next = 1; stack = []; spans = [] }
let current t = match t.stack with p :: _ -> p | [] -> 0
let duration s = s.stop -. s.start

let fresh_id t =
  let id = t.next in
  t.next <- id + 1;
  id

(* [record t ~name ~start ~stop] adds an interval measured elsewhere
   (a client request, a grounding iteration) under the open span. *)
let record ?parent t ~name ~start ~stop =
  if t.enabled then begin
    let parent = Option.value parent ~default:(current t) in
    let id = fresh_id t in
    t.spans <-
      { id; parent; name; start; stop; minor_words = 0.; major_collections = 0 }
      :: t.spans;
    id
  end
  else 0

let with_span t name f =
  if not t.enabled then f ()
  else begin
    let id = fresh_id t in
    let parent = current t in
    t.stack <- id :: t.stack;
    let g0 = Gc.quick_stat () in
    let start = Clock.now () in
    let finish () =
      let stop = Clock.now () in
      let g1 = Gc.quick_stat () in
      t.stack <- List.tl t.stack;
      t.spans <-
        {
          id;
          parent;
          name;
          start;
          stop;
          minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
          major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
        }
        :: t.spans
    in
    Fun.protect ~finally:finish f
  end

let spans t = List.rev t.spans
let find t name = List.find_opt (fun s -> s.name = name) t.spans

let seconds t name =
  match find t name with Some s -> duration s | None -> 0.

(* [covered t name] is the time the direct children of span [name]
   account for. *)
let covered t name =
  match find t name with
  | None -> 0.
  | Some root ->
    List.fold_left
      (fun acc s -> if s.parent = root.id then acc +. duration s else acc)
      0. t.spans

(* [coverage t name] is the share of span [name] that its direct
   children cover; the rest is time no layer span accounts for. *)
let coverage t name =
  let d = seconds t name in
  if d > 0. then covered t name /. d else 0.

let span_to_json s =
  Json.Obj
    [
      ("id", Json.Int s.id);
      ("parent", Json.Int s.parent);
      ("name", Json.String s.name);
      ("start", Json.Float s.start);
      ("end", Json.Float s.stop);
      ("minor_words", Json.Float s.minor_words);
      ("major_collections", Json.Int s.major_collections);
    ]

let to_json t = Json.List (List.map span_to_json (spans t))

let span_of_json j =
  let num k = Option.bind (Json.member k j) Json.to_float in
  let int k = Option.bind (Json.member k j) Json.to_int in
  match
    ( int "id", int "parent", Option.bind (Json.member "name" j) Json.to_string_value,
      (num "start", num "end", num "minor_words", int "major_collections") )
  with
  | Some id, Some parent, Some name, (Some start, Some stop, Some mw, Some mc) ->
    Some { id; parent; name; start; stop; minor_words = mw; major_collections = mc }
  | _ -> None

(* [adopt t ~under spans] grafts spans recorded by another process into
   [t], renumbering ids and hanging their roots under span [under]. *)
let adopt t ~under spans =
  if t.enabled then begin
    let base = t.next in
    let top = ref base in
    List.iter
      (fun s ->
        let id = base + s.id in
        top := max !top (id + 1);
        let parent = if s.parent = 0 then under else base + s.parent in
        t.spans <- { s with id; parent } :: t.spans)
      spans;
    t.next <- !top
  end
