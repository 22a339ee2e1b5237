open Ddb_logic
open Ddb_sat
open Ddb_db

(* Brave (credulous) reasoning: SEM(DB) ⊨_brave F iff F holds in *some*
   intended model.  The paper's companion work studies the brave variants of
   the same problems (they sit in the dual slots: Σ₂ᵖ where cautious is
   Π₂ᵖ, NP where cautious is coNP); implementing them exercises the same
   machinery through the dual queries, and the test suite checks the
   duality  brave(F) = ¬cautious(¬F)  for every two-valued semantics.

   Every engine returns the witnessing model (used by ddbtool's --witness:
   a brave witness for ¬F is exactly a counterexample to cautious F).  For
   PDSM (3-valued) the duality fails at value ½, so the brave engine is
   defined directly: some partial stable model gives F the value 1. *)

let tseitin_extra ~universe f =
  let clauses, _, out = Cnf.tseitin ~next_var:universe f in
  [ out ] :: clauses

(* ∃ minimal model (w.r.t. [part]) satisfying F. *)
let minimal_witness db part f =
  Minimal.find_minimal_such_that
    ~extra:(tseitin_extra ~universe:(Db.num_vars db) f)
    (Db.theory db) part

let egcwa_witness db f =
  let db = Semantics.for_query db f in
  minimal_witness db (Partition.minimize_all (Db.num_vars db)) f

let ecwa_witness db part f = minimal_witness db part f

(* ∃ model of the closed-world augmented theory satisfying F: one SAT call
   after the support-set computation. *)
let augmented_witness db negs f =
  let n = max (Db.num_vars db) (Formula.max_atom f + 1) in
  let db = Db.with_universe db n in
  let solver = Solver.of_clauses ~num_vars:n (Models.augmented_cnf db negs) in
  let _ = Solver.add_formula solver ~next_var:n f in
  match Solver.solve solver with
  | Solver.Sat -> Some (Solver.model ~universe:n solver)
  | Solver.Unsat -> None

let gcwa_witness db f =
  let db = Semantics.for_query db f in
  augmented_witness db
    (Mm.negated_atoms db (Partition.minimize_all (Db.num_vars db)))
    f

let ccwa_witness db part f = augmented_witness db (Mm.negated_atoms db part) f

let cwa_witness db f =
  let db = Semantics.for_query db f in
  augmented_witness db (Models.non_entailed_atoms db) f

let ddr_witness db f =
  let db = Semantics.for_query db f in
  augmented_witness db (Ddr.negated_atoms db) f

let pws_witness db f =
  let db = Semantics.for_query db f in
  Pws.find_possible_such_that
    ~extra:(tseitin_extra ~universe:(Db.num_vars db) f)
    ~pred:(fun m -> Formula.eval m f)
    db

let dsm_witness db f =
  let db = Semantics.for_query db f in
  Dsm.find_stable_such_that
    ~extra:(tseitin_extra ~universe:(Db.num_vars db) f)
    ~pred:(fun m -> Formula.eval m f)
    db

let perf_witness db f =
  let db = Semantics.for_query db f in
  Perf.find_perfect_such_that
    ~extra:(tseitin_extra ~universe:(Db.num_vars db) f)
    ~pred:(fun m -> Formula.eval m f)
    db

let icwa_witness db part f =
  let db = Semantics.for_query db f in
  match Icwa.prepare db part with
  | None -> invalid_arg "Brave.icwa: database is not stratified"
  | Some inst ->
    Icwa.find_icwa_model_such_that
      ~extra:(tseitin_extra ~universe:(Db.num_vars inst.Icwa.shifted) f)
      ~pred:(fun m -> Formula.eval m f)
      inst

let pdsm_witness db f =
  let db = Semantics.for_query db f in
  Pdsm.find_partial_stable_such_that
    ~pred:(fun i -> Three_valued.eval_formula i f = Three_valued.T)
    db

(* Boolean views. *)
let cwa db f = Option.is_some (cwa_witness db f)
let gcwa db f = Option.is_some (gcwa_witness db f)
let ccwa db part f = Option.is_some (ccwa_witness db part f)
let egcwa db f = Option.is_some (egcwa_witness db f)
let ecwa db part f = Option.is_some (ecwa_witness db part f)
let ddr db f = Option.is_some (ddr_witness db f)
let pws db f = Option.is_some (pws_witness db f)
let icwa db part f = Option.is_some (icwa_witness db part f)
let perf db f = Option.is_some (perf_witness db f)
let dsm db f = Option.is_some (dsm_witness db f)
let pdsm db f = Option.is_some (pdsm_witness db f)

(* Uniform entry points mirroring the cautious registry; the
   partition-parametric semantics use the total partition. *)

type witness = Two_valued of Interp.t | Three_valued_witness of Three_valued.t

let witness_by_name name db f =
  let total () =
    Partition.minimize_all (Db.num_vars (Semantics.for_query db f))
  in
  let two w = Option.map (fun m -> Two_valued m) w in
  match name with
  | "cwa" -> Some (two (cwa_witness db f))
  | "gcwa" -> Some (two (gcwa_witness db f))
  | "ccwa" -> Some (two (ccwa_witness (Semantics.for_query db f) (total ()) f))
  | "egcwa" -> Some (two (egcwa_witness db f))
  | "ecwa" | "circ" ->
    Some (two (ecwa_witness (Semantics.for_query db f) (total ()) f))
  | "ddr" -> Some (two (ddr_witness db f))
  | "pws" -> Some (two (pws_witness db f))
  | "icwa" -> Some (two (icwa_witness (Semantics.for_query db f) (total ()) f))
  | "perf" -> Some (two (perf_witness db f))
  | "dsm" -> Some (two (dsm_witness db f))
  | "pdsm" ->
    Some (Option.map (fun i -> Three_valued_witness i) (pdsm_witness db f))
  | _ -> None

let by_name name db f =
  Option.map Option.is_some (witness_by_name name db f)
