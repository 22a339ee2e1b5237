open Ddb_logic
open Ddb_sat
open Ddb_db

(* Shared machinery over MM(DB;P;Z) for the closed-world family.

   The central object is the *support set*
       S  =  { x ∈ P : x is true in some (P;Z)-minimal model of DB },
   whose complement within P is exactly the set of atoms GCWA/CCWA add as
   negated: GCWA(DB) adds ¬x for x ∈ P∖S.

   [support_set] is {!Minimal.support_set}: one minimal-model search whose
   constraint "some P-atom outside S is true" strengthens as S grows. *)

let support_set db part = Minimal.support_set (Db.theory db) part

(* The closed-world augmentation: ¬x for every x ∈ P false in all
   (P;Z)-minimal models. *)
let negated_atoms db part =
  Interp.diff (Partition.p part) (support_set db part)

(* Augmented theory DB ∪ { ¬x : x ∈ negs } as CNF. *)
let augmented_cnf db negs =
  Db.to_cnf db @ Interp.fold (fun x acc -> [ Lit.Neg x ] :: acc) negs []

(* Entailment from the augmented theory: one SAT call given [negs]. *)
let augmented_entails db negs f =
  let n = max (Db.num_vars db) (Formula.max_atom f + 1) in
  let solver =
    Solver.of_clauses ~num_vars:n (augmented_cnf (Db.with_universe db n) negs)
  in
  let _ = Solver.add_formula solver ~next_var:n (Formula.not_ f) in
  match Solver.solve solver with Solver.Sat -> false | Solver.Unsat -> true

let augmented_has_model db negs =
  let solver =
    Solver.of_clauses ~num_vars:(Db.num_vars db) (augmented_cnf db negs)
  in
  match Solver.solve solver with Solver.Sat -> true | Solver.Unsat -> false

(* Reference: support set by brute-force minimal models. *)
let brute_support_set db part =
  let minimal = Models.brute_minimal_models ~part db in
  List.fold_left
    (fun acc m -> Interp.union acc (Interp.inter m (Partition.p part)))
    (Interp.empty (Db.num_vars db))
    minimal
