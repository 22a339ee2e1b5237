open Ddb_logic
open Ddb_db
open Ddb_engine

(* ECWA — the Extended CWA of Gelfond, Przymusinska & Przymusinski: for a
   partition ⟨P;Q;Z⟩ the meaning of DB is the set of (P;Z)-minimal models,

     ECWA_{P;Z}(DB) = MM(DB; P; Z).

   EGCWA is the special case Q = Z = ∅.  In the finite propositional case
   ECWA coincides with circumscription (see {!Circ}, implemented
   independently from the circumscription schema; the equivalence is a
   property test).  Minimal-model entailment is memoized by the engine. *)

(* Public entry points scope themselves ("ecwa" bucket). *)
let scope eng f = Engine.scoped eng "ecwa" f

let infer_formula_in eng db part f =
  if Formula.max_atom f >= Partition.universe_size part then
    invalid_arg "Ecwa.infer_formula_in: query atom outside the partition";
  scope eng (fun () -> Engine.minimal_entails ~part eng db f)

let infer_literal_in eng db part l =
  infer_formula_in eng db part (Formula.of_lit l)

let has_model_in eng db =
  scope eng (fun () -> Db.is_positive_ddb db || Engine.sat eng db)

let reference_models db part = Models.brute_minimal_models ~part db

(* The registry record: the total partition over the database universe,
   padded to cover the query's atoms (literal and formula alike). *)
let semantics_in eng : Semantics.t =
  let total db = Partition.minimize_all (Db.num_vars db) in
  {
    name = "ecwa";
    long_name = "Extended CWA (Gelfond, Przymusinska & Przymusinski)";
    applicable = (fun _ -> true);
    has_model = has_model_in eng;
    infer_formula =
      (fun db f ->
        let db = Semantics.for_query db f in
        infer_formula_in eng db (total db) f);
    infer_literal =
      (fun db l ->
        let db = Semantics.for_query db (Formula.of_lit l) in
        infer_literal_in eng db (total db) l);
    reference_models = (fun db -> reference_models db (total db));
  }
