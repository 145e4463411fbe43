(* Shared helpers for the experiment harness. *)

let pf = Format.printf

let section title =
  pf "@.==============================================================@.";
  pf "%s@." title;
  pf "==============================================================@."

let paper fmt = pf ("  paper:    " ^^ fmt ^^ "@.")
let measured fmt = pf ("  measured: " ^^ fmt ^^ "@.")
let note fmt = pf ("  note:     " ^^ fmt ^^ "@.")

let time f =
  let t0 = Obs.now () in
  let result = f () in
  (result, Obs.now () -. t0)

(* Every measured cell of Table 3 and Figures 6(a)-(b) is the median of
   this many trials, reported with its min and max. *)
let trials = 5

type spread = { median : float; min : float; max : float }

let spread xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  let median =
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
  in
  { median; min = a.(0); max = a.(n - 1) }

(* [measure f] runs [f] [trials] times: the spread of its results. *)
let measure f = spread (List.init trials (fun _ -> f ()))

(* [cells f] runs [f] [trials] times; every run returns one value per
   cell, the same cells each time.  The result is each cell's spread. *)
let cells f =
  let runs = List.init trials (fun _ -> f ()) in
  List.mapi (fun i _ -> spread (List.map (fun r -> List.nth r i) runs))
    (List.hd runs)

let pp_spread ppf s = Format.fprintf ppf "%.3f [%.3f, %.3f]" s.median s.min s.max

(* A deep copy of a knowledge base sharing dictionaries, with an optional
   replacement rule set. *)
let copy_kb ?rules kb =
  let kb2 = Kb.Gamma.create_like kb in
  Kb.Storage.iter
    (fun ~id:_ ~r ~x ~c1 ~y ~c2 ~w ->
      ignore (Kb.Gamma.add_fact kb2 ~r ~x ~c1 ~y ~c2 ~w))
    (Kb.Gamma.pi kb);
  List.iter (Kb.Gamma.add_rule kb2)
    (match rules with Some rs -> rs | None -> Kb.Gamma.rules kb);
  List.iter (Kb.Gamma.add_funcon kb2) (Kb.Gamma.omega kb);
  kb2

(* Derived DBMS time: measured in-process seconds plus the per-statement
   overhead derived from the paper's own Table 3 (see
   Relational.Dbms_model). *)
let modeled ?(tables = 0) ~statements measured =
  Relational.Dbms_model.modeled_seconds Relational.Dbms_model.default
    ~statements ~tables_created:tables ~measured

(* Global options parsed by main. *)
type options = {
  mutable experiments : string list; (* empty = all *)
  mutable full : bool; (* paper-scale sweeps *)
  mutable scale : float option; (* override default scale *)
  mutable quick : bool; (* CI-sized runs *)
}

let options = { experiments = []; full = false; scale = None; quick = false }

let scale_or default =
  match options.scale with
  | Some s -> s
  | None -> if options.quick then default /. 4. else default
