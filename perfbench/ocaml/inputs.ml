(* Workload inputs, made from the run's seed.

   The knowledge base is the ReVerb-Sherlock generator's output at a
   fixed generator seed, so every run grounds the same fact closure and
   the same factor graph, and the reference counts below apply whatever
   the run seed.  For the batch workloads the run seed permutes the order
   of the fact and rule files, which changes every fact id, dictionary id
   and the sampler's variable numbering.  The serving workloads keep the
   generated order: a budgeted local walk breaks ties by fact id, so a
   permuted file changes which neighbourhood a query key gets and how
   costly it is to solve.  There the run seed orders the request
   streams instead.  The program only ever sees the files written here. *)

module Gamma = Kb.Gamma
module Json = Obs.Json
module Rng = Workload.Rng
module Rs = Workload.Reverb_sherlock

let generator_seed = 42
let default_scale = 0.04

(* Closure size (facts) and ground factor count after Ω + 4 closure
   iterations, per generator scale: the table3_batch reference. *)
let reference = [ (0.04, (44951, 47450)); (0.005, (3130, 3155)) ]
let reference_counts scale = List.assoc_opt scale reference
let facts_file dir = Filename.concat dir "facts.tsv"
let rules_file dir = Filename.concat dir "rules.mln"
let constraints_file dir = Filename.concat dir "constraints.tsv"
let writes_file dir = Filename.concat dir "writes.ndjson"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let write_lines path lines =
  let oc = open_out path in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    lines;
  close_out oc

(* [save_shuffled rng path save] writes what [save] writes to [path],
   comments dropped and lines permuted by [rng]. *)
let save_shuffled ~shuffle rng path save =
  let oc = open_out path in
  save oc;
  close_out oc;
  if shuffle then begin
    let a =
      Kb.Loader.read_lines path
      |> List.filter (fun l -> l <> "" && l.[0] <> '#')
      |> Array.of_list
    in
    Rng.shuffle rng a;
    write_lines path (Array.to_list a)
  end

let key_names kb (r, x, c1, y, c2) =
  let name d i = Relational.Dict.name d i in
  ( name (Gamma.relations kb) r,
    name (Gamma.entities kb) x,
    name (Gamma.classes kb) c1,
    name (Gamma.entities kb) y,
    name (Gamma.classes kb) c2 )

(* The live_epochs write stream: a fixed pool of [pool] batches of
   [batch] fresh extractions (drawn with the generator's seed, so every
   run writes the same facts), streamed in passes whose batch order the
   run seed permutes — each batch is ingested, then retracted — with a
   marginal refresh after every [refresh_every] writes.  Written as the
   wire's NDJSON ops. *)
let refresh_every = 30
let batch = 4
let pool = 16

let write_stream g rng ~epochs =
  let kb = Rs.kb g in
  let pi = Gamma.pi kb in
  let used = Hashtbl.create 1024 in
  let facts = Rng.create generator_seed in
  let rec fresh () =
    let ((r, x, c1, y, c2) as key) = Rs.random_fact g facts in
    if Kb.Storage.find pi ~r ~x ~c1 ~y ~c2 <> None || Hashtbl.mem used key then
      fresh ()
    else begin
      Hashtbl.replace used key ();
      key_names kb key
    end
  in
  let batches =
    Array.init pool (fun _ ->
        List.init batch (fun _ -> (fresh (), 0.55 +. Rng.float facts 0.4)))
  in
  let op o = Json.to_string (Serve.Protocol.op_to_json o) in
  let lines = ref [] and writes = ref 0 in
  while !writes < epochs do
    let order = Array.init pool Fun.id in
    Rng.shuffle rng order;
    Array.iter
      (fun b ->
        let facts = batches.(b) in
        List.iter
          (fun o ->
            lines := op o :: !lines;
            incr writes;
            if !writes mod refresh_every = 0 then lines := op Serve.Protocol.Refresh :: !lines)
          [
            Serve.Protocol.Ingest facts;
            Serve.Protocol.Retract { keys = List.map fst facts; ban = false };
          ])
      order
  done;
  List.rev !lines

(* [make ~shuffle ~scale ~seed ~dir ~write_epochs] writes the input
   files. *)
let make ~shuffle ~scale ~seed ~dir ~write_epochs =
  mkdir_p dir;
  let g = Rs.generate { Rs.default_config with scale; seed = generator_seed } in
  let kb = Rs.kb g in
  let rng = Rng.create seed in
  save_shuffled ~shuffle (Rng.split rng "facts") (facts_file dir) (Kb.Loader.save_facts kb);
  save_shuffled ~shuffle (Rng.split rng "rules") (rules_file dir) (Kb.Loader.save_rules kb);
  write_lines (constraints_file dir)
    (List.map
       (fun (fc : Kb.Funcon.t) ->
         Printf.sprintf "%s\t%s\t%d"
           (Relational.Dict.name (Gamma.relations kb) fc.Kb.Funcon.rel)
           (match fc.Kb.Funcon.ftype with
           | Kb.Funcon.Type_I -> "I"
           | Kb.Funcon.Type_II -> "II")
           fc.Kb.Funcon.degree)
       (Gamma.omega kb));
  if write_epochs > 0 then
    write_lines (writes_file dir)
      (write_stream g (Rng.split rng "writes") ~epochs:write_epochs)

(* [load dir] is the program's own loader over the generated files. *)
let load dir =
  let kb = Gamma.create () in
  ignore (Kb.Loader.load_facts_file kb (facts_file dir));
  ignore (Kb.Loader.load_rules_file kb (rules_file dir));
  ignore (Kb.Loader.load_constraints_file kb (constraints_file dir));
  kb
