open Ddb_logic
open Ddb_db

(** The uniform face of a disjunctive database semantics: a packed record of
    the three decision problems the paper studies (literal inference,
    formula inference, model existence), plus a reference engine. *)

type t = {
  name : string;
  long_name : string;
  applicable : Db.t -> bool;
      (** Which databases the semantics is defined for (e.g. DDR and PWS need
          negation-free databases, ICWA a stratified one). *)
  has_model : Db.t -> bool;  (** SEM(DB) ≠ ∅. *)
  infer_formula : Db.t -> Formula.t -> bool;  (** SEM(DB) ⊨ F. *)
  infer_literal : Db.t -> Lit.t -> bool;  (** SEM(DB) ⊨ ℓ. *)
  reference_models : Db.t -> Interp.t list;
      (** Explicit model set by exhaustive enumeration (ground truth on
          small universes; exponential). *)
}

val lift_literal : (Db.t -> Formula.t -> bool) -> Db.t -> Lit.t -> bool
(** Literal inference as formula inference. *)

val reference_infer : (Db.t -> Interp.t list) -> Db.t -> Formula.t -> bool
val reference_has_model : (Db.t -> Interp.t list) -> Db.t -> bool

val for_query : Db.t -> Formula.t -> Db.t
(** Pad the database universe so every query atom is a legal atom id. *)

val via_engine : Ddb_engine.Engine.t -> t -> t
(** Route the semantics through the memoizing oracle engine: each decision
    problem runs inside an {!Ddb_engine.Engine.scoped} bucket named after
    the semantics and its answer is memoized under the database's canonical
    key.  The engine path of the modules whose procedures the engine does
    not decompose (PWS, CIRC, ICWA, PERF, DSM, PDSM); the closed-world
    family's [semantics_in] records ask each oracle query of the engine
    directly and have no engine-free procedure. *)

val formula_of_lit : Lit.t -> Formula.t
