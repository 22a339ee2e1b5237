open Ddb_logic

(** The PERF priority relation and perfectness checks. *)

type t

val compute : Db.t -> t
(** Transitive closure of the clause-derived priority constraints. *)

val lt : t -> int -> int -> bool
(** [lt t x y]: x < y (y has strictly higher priority). *)

val higher : t -> int -> Interp.t
(** All atoms strictly above the given one. *)

type checker
(** The perfectness check of one database, encoded once: the database over
    the atoms of a candidate N, a shadow copy of the universe for M, and
    the clauses of "M∖N ≠ ∅ and every atom of N∖M lies below some atom of
    M∖N" (which together say N ≺ M).  Each query pins the shadow copy by
    assumptions. *)

val checker : Db.t -> checker
(** Compute the priority relation and encode the check. *)

val preferable_model : checker -> Interp.t -> Interp.t option
(** A model of the database preferable to the given interpretation, if
    any: one SAT call under assumptions, which adds no clause, so one
    checker serves every candidate of a query. *)

val is_perfect : Db.t -> Interp.t -> bool
(** Model check plus one {!preferable_model} call on a fresh checker. *)

val preferable : t -> candidate:Interp.t -> over:Interp.t -> bool
(** Reference definition of N ≺ M on explicit interpretations. *)

val brute_perfect_models : Db.t -> Interp.t list

val perfect_models :
  ?limit:int -> ?truncated:bool ref -> Db.t -> Interp.t list
(** The minimal models screened by one checker.  [limit] bounds the
    underlying minimal-model enumeration; a cut-short enumeration sets
    [truncated] (if given) to [true]. *)
