open Ddb_logic
open Ddb_db

(** Shared support-set machinery over MM(DB;P;Z) for the closed-world
    family (GCWA/CCWA). *)

val support_set : Db.t -> Partition.t -> Interp.t
(** {x ∈ P : x true in some (P;Z)-minimal model}:
    {!Ddb_sat.Minimal.support_set} on the database's theory. *)

val negated_atoms : Db.t -> Partition.t -> Interp.t
(** P ∖ support — the atoms the closed-world rule negates. *)

val augmented_cnf : Db.t -> Interp.t -> Lit.t list list
val augmented_entails : Db.t -> Interp.t -> Formula.t -> bool
val augmented_has_model : Db.t -> Interp.t -> bool
val brute_support_set : Db.t -> Partition.t -> Interp.t
