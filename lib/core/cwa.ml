open Ddb_logic
open Ddb_db
open Ddb_engine

(* CWA — Reiter's original Closed World Assumption, included as the
   baseline the paper departs from:

     CWA(DB) = M( DB ∪ { ¬x : DB ⊭ x } )

   On disjunctive databases the augmentation is often inconsistent (the
   paper's motivating observation): from a ∨ b neither a nor b is entailed,
   so both ¬a and ¬b are added.  Deciding CWA-consistency is coNP-hard and
   in P^NP[O(log n)] but (most likely) not in coD^P [7,18].

   The closure set {x : DB ⊭ x} takes n entailment checks (n SAT calls);
   the engine memoizes it per theory and runs the checks as assumption
   solves on the theory's shared solver. *)

(* Public entry points scope themselves ("cwa" bucket). *)
let scope eng f = Engine.scoped eng "cwa" f

let negated_atoms_in eng db =
  scope eng (fun () -> Engine.non_entailed_atoms eng db)

let has_model_in eng db =
  scope eng (fun () ->
      Engine.augmented_has_model eng db (negated_atoms_in eng db))

let infer_formula_in eng db f =
  scope eng (fun () ->
      let db = Semantics.for_query db f in
      Engine.augmented_entails eng db (negated_atoms_in eng db) f)

let infer_literal_in eng db l = infer_formula_in eng db (Formula.of_lit l)

let reference_models db =
  let models = Models.brute_models db in
  let n = Db.num_vars db in
  let negs =
    Interp.of_pred n (fun x -> List.exists (fun m -> not (Interp.mem m x)) models)
  in
  List.filter (fun m -> Interp.is_empty (Interp.inter m negs)) models

let semantics_in eng : Semantics.t =
  {
    name = "cwa";
    long_name = "Closed World Assumption (Reiter)";
    applicable = (fun _ -> true);
    has_model = has_model_in eng;
    infer_formula = infer_formula_in eng;
    infer_literal = infer_literal_in eng;
    reference_models;
  }
