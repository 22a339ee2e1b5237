open Ddb_logic
open Ddb_sat

(* Model-theoretic primitives over databases: M(DB), MM(DB), MM(DB;P;Z) —
   the objects every semantics in the paper is phrased in terms of.

   Each primitive has a SAT-backed engine (the default) and a brute-force
   reference used by the test suite on small universes. *)

let is_model db m = Db.satisfied_by m db

let has_model db =
  match Solver.solve (Db.solver db) with
  | Solver.Sat -> true
  | Solver.Unsat -> false

let some_model db =
  let solver = Db.solver db in
  match Solver.solve solver with
  | Solver.Sat -> Some (Solver.model ~universe:(Db.num_vars db) solver)
  | Solver.Unsat -> None

let all_models ?limit ?truncated db =
  Enum.all_models ?limit ?truncated ~num_vars:(Db.num_vars db) (Db.to_cnf db)

let minimal_models ?limit ?truncated db =
  Minimal.all_minimal ?limit ?truncated (Db.theory db)

let is_minimal_model ?part db m =
  let part =
    match part with Some p -> p | None -> Partition.minimize_all (Db.num_vars db)
  in
  is_model db m && Minimal.is_minimal (Db.theory db) part m

let some_minimal_model ?part db =
  let part =
    match part with Some p -> p | None -> Partition.minimize_all (Db.num_vars db)
  in
  Minimal.find_minimal (Db.theory db) part

(* MM(DB;P;Z) restricted to a finite representative set: all minimal models,
   *one per (P,Q)-section*, each canonically extended on Z by an arbitrary
   completion found by the solver.  (The full MM(DB;P;Z) also contains every
   Z-variant; for entailment questions use [entails_*] below, which quantify
   over all of them.) *)
let minimal_section_models ?limit ?truncated db part =
  let theory = Db.theory db in
  let candidate = Minimal.solver_of theory in
  let minimizer = Minimal.solver_of theory in
  let n = Db.num_vars db in
  let acc = ref [] in
  let budget = ref (match limit with Some k -> k | None -> -1) in
  let continue = ref true in
  while !continue && !budget <> 0 do
    match Solver.solve candidate with
    | Solver.Unsat -> continue := false
    | Solver.Sat ->
      let m = Solver.model ~universe:n candidate in
      let m_min = Minimal.minimize_with minimizer part m in
      acc := m_min :: !acc;
      if !budget > 0 then decr budget;
      Solver.add_clause candidate (Minimal.cone_blocking part m_min)
  done;
  if !continue && !budget = 0 then
    Option.iter (fun r -> r := true) truncated;
  List.rev !acc

(* SEM-entailment for semantics whose model set is MM(DB;P;Z): does every
   (P;Z)-minimal model satisfy F?  Counterexample search by guess-and-check:
   find a minimal model of DB satisfying ¬F. *)
let minimal_entails ?part db formula =
  let n = max (Db.num_vars db) (Formula.max_atom formula + 1) in
  let db = Db.with_universe db n in
  let part =
    match part with Some p -> p | None -> Partition.minimize_all n
  in
  let not_f = Formula.not_ formula in
  let extra, _, out = Cnf.tseitin ~next_var:n not_f in
  let extra = [ out ] :: extra in
  match
    Minimal.find_minimal_such_that ~extra (Db.theory db) part
  with
  | Some _ -> false
  | None -> true

(* Classical entailment: DB |= F, one SAT call on DB ∧ ¬F. *)
let entails db formula =
  let n = max (Db.num_vars db) (Formula.max_atom formula + 1) in
  let solver = Db.solver db in
  Solver.ensure_vars solver n;
  let _ = Solver.add_formula solver ~next_var:n (Formula.not_ formula) in
  match Solver.solve solver with
  | Solver.Sat -> false
  | Solver.Unsat -> true

(* --- closed-world augmentations ---

   The CWA family answers queries from DB augmented with negated atoms.
   These are the fresh-solver forms; the memoizing engine runs the same
   queries under assumptions on a shared solver. *)

(* { x : DB ⊭ x }, Reiter's CWA closure set: n assumption solves on one
   solver. *)
let non_entailed_atoms db =
  let solver = Db.solver db in
  Interp.of_pred (Db.num_vars db) (fun x ->
      match Solver.solve ~assumptions:[ Lit.Neg x ] solver with
      | Solver.Sat -> true (* some model omits x *)
      | Solver.Unsat -> false)

(* Augmented theory DB ∪ { ¬x : x ∈ negs } as CNF. *)
let augmented_cnf db negs =
  Db.to_cnf db @ Interp.fold (fun x acc -> [ Lit.Neg x ] :: acc) negs []

(* DB ∪ ¬negs ⊨ F: one SAT call on the augmented theory and ¬F. *)
let augmented_entails db negs f =
  let n = max (Db.num_vars db) (Formula.max_atom f + 1) in
  let solver =
    Solver.of_clauses ~num_vars:n (augmented_cnf (Db.with_universe db n) negs)
  in
  let _ = Solver.add_formula solver ~next_var:n (Formula.not_ f) in
  match Solver.solve solver with Solver.Sat -> false | Solver.Unsat -> true

(* DB ∪ ¬negs has a model: one SAT call. *)
let augmented_has_model db negs =
  let solver =
    Solver.of_clauses ~num_vars:(Db.num_vars db) (augmented_cnf db negs)
  in
  match Solver.solve solver with Solver.Sat -> true | Solver.Unsat -> false

(* --- brute-force references (small universes) --- *)

let brute_models db =
  List.filter (fun m -> is_model db m) (Interp.all (Db.num_vars db))

let brute_minimal_models ?part db =
  let part =
    match part with
    | Some p -> p
    | None -> Partition.minimize_all (Db.num_vars db)
  in
  Minimal.minimal_of_models part (brute_models db)
