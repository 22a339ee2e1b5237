open Ddb_logic
open Ddb_db

(** DSM — Przymusinski's disjunctive stable models:
    [DSM(DB) = { M : M ∈ MM(DB^M) }] with [DB^M] the Gelfond–Lifschitz
    reduct.  Inference is Π₂ᵖ-complete; model existence Σ₂ᵖ-complete (even
    without integrity clauses), trivially true on positive databases where
    DSM = MM. *)

val is_stable : Db.t -> Interp.t -> bool
(** Definitional stability check: the reduct DB^M, then one minimality SAT
    call on a fresh solver.  The reference engine and the tests use it; the
    procedures use {!checker}. *)

type checker
(** The stability check of one database, encoded once: DB^M for every M,
    over the atoms of a candidate N and a shadow copy of the universe that
    each query pins to M. *)

val checker : Db.t -> checker

val is_stable_with : checker -> Interp.t -> bool
(** Same answer as {!is_stable}, for any interpretation.  One SAT call
    that adds no clause, skipped (as on the reduct path) when M ⊭ DB^M or
    M = ∅. *)

val find_stable_such_that :
  ?pred:(Interp.t -> bool) -> ?extra:Lit.t list list -> Db.t -> Interp.t option
(** A stable model satisfying [pred] among the minimal models that satisfy
    [extra]; the checker is built on the first candidate that passes
    [pred]. *)

val infer_formula : Db.t -> Formula.t -> bool
val infer_literal : Db.t -> Lit.t -> bool
val has_model : Db.t -> bool
val stable_models : ?limit:int -> ?truncated:bool ref -> Db.t -> Interp.t list
(** A [limit]-cut enumeration sets [truncated] (if given) to [true]. *)

val reference_models : Db.t -> Interp.t list
val semantics : Semantics.t

val semantics_in : Ddb_engine.Engine.t -> Semantics.t
(** Routed through the memoizing oracle engine ({!Semantics.via_engine}). *)
