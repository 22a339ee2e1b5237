open Ddb_logic
open Ddb_db

(* PERF — Przymusinski's Perfect Model Semantics for DNDBs.

   The priority relation and the perfectness checker live in
   {!Ddb_db.Priority}.  Perfect models are minimal models (any proper
   submodel is vacuously preferable), so the Π₂ᵖ-style engines below walk
   the minimal models lazily and screen each with one SAT call on a
   checker built once per query, on the first candidate that reaches it:
     - inference: hunt for a perfect model violating the query;
     - existence: hunt for any perfect model (for a stratified database the
       unique perfect model exists, matching the paper's consistency
       discussion; for unstratified ones there may be none). *)

exception Found of Interp.t

let find_perfect_such_that ?(pred = fun _ -> true) ?extra db =
  let checker = lazy (Priority.checker db) in
  try
    Ddb_sat.Minimal.iter_minimal ?extra (Db.theory db) (fun m ->
        if
          pred m
          && Option.is_none
               (Priority.preferable_model (Lazy.force checker) m)
        then raise (Found m)
        else `Continue);
    None
  with Found m -> Some m

let infer_formula db f =
  let db = Semantics.for_query db f in
  let n = Db.num_vars db in
  let not_f = Formula.not_ f in
  let extra_clauses, _, out = Ddb_sat.Cnf.tseitin ~next_var:n not_f in
  let extra = [ out ] :: extra_clauses in
  (* The candidate restriction prunes; minimization can escape ¬F, so the
     pred re-checks it. *)
  match find_perfect_such_that ~pred:(fun m -> Formula.eval m not_f) ~extra db with
  | Some _ -> false
  | None -> true

let infer_literal db l = infer_formula db (Formula.of_lit l)

let has_model db = Option.is_some (find_perfect_such_that db)

let reference_models db = Priority.brute_perfect_models db

let perfect_models = Priority.perfect_models

let semantics : Semantics.t =
  {
    name = "perf";
    long_name = "Perfect Model Semantics (Przymusinski)";
    applicable = (fun _ -> true);
    has_model;
    infer_formula;
    infer_literal;
    reference_models;
  }

(* Engine routing: answers memoized and instrumented per semantics. *)
let semantics_in eng = Semantics.via_engine eng semantics
