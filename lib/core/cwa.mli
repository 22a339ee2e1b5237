open Ddb_logic
open Ddb_db

(** CWA — Reiter's Closed World Assumption (the baseline the disjunctive
    semantics repair): add ¬x for every atom not classically entailed.
    Frequently inconsistent on disjunctive databases.  Every decision
    procedure asks its oracle queries of the given engine, which memoizes
    the closure set per theory. *)

val negated_atoms_in : Ddb_engine.Engine.t -> Db.t -> Interp.t
(** [{x : DB ⊭ x}] — the atoms CWA negates. *)

val has_model_in : Ddb_engine.Engine.t -> Db.t -> bool
val infer_formula_in : Ddb_engine.Engine.t -> Db.t -> Formula.t -> bool
val infer_literal_in : Ddb_engine.Engine.t -> Db.t -> Lit.t -> bool
val reference_models : Db.t -> Interp.t list
val semantics_in : Ddb_engine.Engine.t -> Semantics.t
