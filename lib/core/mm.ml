open Ddb_logic
open Ddb_sat
open Ddb_db

(* Shared machinery over MM(DB;P;Z) for the closed-world family.

   The central object is the *support set*
       S  =  { x ∈ P : x is true in some (P;Z)-minimal model of DB },
   whose complement within P is exactly the set of atoms GCWA/CCWA add as
   negated: GCWA(DB) adds ¬x for x ∈ P∖S.

   S is {!Minimal.support_set}: one minimal-model search whose constraint
   "some P-atom outside S is true" strengthens as S grows. *)

(* The closed-world augmentation: ¬x for every x ∈ P false in all
   (P;Z)-minimal models. *)
let negated_atoms db part =
  Interp.diff (Partition.p part) (Minimal.support_set (Db.theory db) part)

(* Reference: support set by brute-force minimal models. *)
let brute_support_set db part =
  let minimal = Models.brute_minimal_models ~part db in
  List.fold_left
    (fun acc m -> Interp.union acc (Interp.inter m (Partition.p part)))
    (Interp.empty (Db.num_vars db))
    minimal
