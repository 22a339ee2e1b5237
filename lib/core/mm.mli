open Ddb_logic
open Ddb_db

(** Shared support-set machinery over MM(DB;P;Z) for the closed-world
    family (GCWA/CCWA). *)

val negated_atoms : Db.t -> Partition.t -> Interp.t
(** P ∖ S for the support set S = {x ∈ P : x true in some (P;Z)-minimal
    model} ({!Ddb_sat.Minimal.support_set}) — the atoms the closed-world
    rule negates, on a fresh solver. *)

val brute_support_set : Db.t -> Partition.t -> Interp.t
