open Ddb_logic
open Ddb_db

(** CCWA — the Careful CWA of Gelfond & Przymusinska: given ⟨P;Q;Z⟩, add
    ¬x for every x ∈ P false in all (P;Z)-minimal models.  GCWA is the
    special case Q = Z = ∅.  Support sets and entailment run through the
    given memoizing oracle engine. *)

val negated_atoms_in : Ddb_engine.Engine.t -> Db.t -> Partition.t -> Interp.t

val entails_neg_literal_in :
  Ddb_engine.Engine.t -> Db.t -> Partition.t -> int -> bool
(** One minimal-model oracle query for x ∈ P. *)

val infer_formula_in :
  Ddb_engine.Engine.t -> Db.t -> Partition.t -> Formula.t -> bool
(** @raise Invalid_argument if the query leaves the partitioned universe. *)

val infer_literal_in :
  Ddb_engine.Engine.t -> Db.t -> Partition.t -> Lit.t -> bool

val has_model_in : Ddb_engine.Engine.t -> Db.t -> bool
val reference_models : Db.t -> Partition.t -> Interp.t list

val semantics_in : Ddb_engine.Engine.t -> Semantics.t
(** Packed with the total partition ⟨V;∅;∅⟩ (= GCWA), the universe padded
    to cover the query's atoms. *)
