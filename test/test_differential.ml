open Ddb_logic
open Ddb_db
open Ddb_core
module Engine = Ddb_engine.Engine

(* Differential property tests across the semantics: the paper's inclusion
   relationships, the ECWA/circumscription equivalence, SAT-based versus
   brute-force minimal models, and cached-versus-uncached engine agreement.
   Iteration counts default low; the @slowtest alias raises them via
   DDB_QCHECK_COUNT. *)

let count n = Gen.qcheck_count n
let seeds = QCheck.int_bound 999999
let rand_of seed = Random.State.make [| seed |]

(* DDR/WGCWA is the *weaker* negation rule: an atom it negates is negated
   by GCWA too, never conversely.  (DB = {a ∨ b, a}: GCWA ⊨ ¬b because b
   holds in no minimal model, but b occurs in a disjunctive head so DDR
   keeps it open.)  This is the GCWA ⊇ WGCWA inclusion of the paper's
   semantics lattice. *)
let qcheck_ddr_implies_gcwa =
  QCheck.Test.make ~count:(count 40)
    ~name:"DDR ⊨ ¬x implies GCWA ⊨ ¬x (positive DDBs)" seeds (fun seed ->
      let rand = rand_of seed in
      let num_vars = 1 + Random.State.int rand 6 in
      let db = Gen.positive_db rand ~num_vars ~num_clauses:(2 * num_vars) in
      let eng = Gen.ablation () in
      List.for_all
        (fun x ->
          (not (Ddr.infer_literal_in eng db (Lit.Neg x)))
          || Gcwa.infer_literal_in eng db (Lit.Neg x))
        (List.init num_vars Fun.id))

(* Every minimal model of DB is a model of GCWA(DB) = DB ∪ {¬x : x in no
   minimal model}, so GCWA-cautious consequence implies EGCWA-cautious
   consequence on arbitrary formulas. *)
let qcheck_gcwa_implies_egcwa =
  QCheck.Test.make ~count:(count 40)
    ~name:"GCWA ⊨ F implies EGCWA ⊨ F (positive DDBs)" seeds (fun seed ->
      let rand = rand_of seed in
      let num_vars = 1 + Random.State.int rand 6 in
      let db = Gen.positive_db rand ~num_vars ~num_clauses:(2 * num_vars) in
      let f = Gen.random_formula rand num_vars ~depth:3 in
      let eng = Gen.ablation () in
      (not (Gcwa.infer_formula_in eng db f)) || Egcwa.infer_formula_in eng db f)

(* ECWA coincides with parallel predicate circumscription in the finite
   propositional case (the two modules implement the two definitions
   independently: minimal-model entailment vs the circumscription schema). *)
let qcheck_ecwa_equals_circ =
  QCheck.Test.make ~count:(count 40)
    ~name:"ECWA ≡ CIRC on random DNDBs and partitions" seeds (fun seed ->
      let rand = rand_of seed in
      let num_vars = 1 + Random.State.int rand 5 in
      let db = Gen.dndb rand ~num_vars ~num_clauses:(2 * num_vars) in
      let part = Gen.random_partition rand num_vars in
      let f = Gen.random_formula rand num_vars ~depth:3 in
      Ecwa.infer_formula_in (Gen.ablation ()) db part f
      = Circ.infer_formula db part f)

(* The SAT-based minimize-then-block enumeration must produce exactly the
   brute-force minimal models. *)
let qcheck_minimal_models_coincide =
  QCheck.Test.make ~count:(count 40)
    ~name:"SAT minimal-model enumeration ≡ brute force" seeds (fun seed ->
      let rand = rand_of seed in
      let num_vars = 1 + Random.State.int rand 6 in
      let db = Gen.dndb rand ~num_vars ~num_clauses:(2 * num_vars) in
      Gen.interp_list_equal (Models.minimal_models db)
        (Models.brute_minimal_models db))

(* Cached and uncached engines agree with the brute-force reference
   engines on every applicable registry semantics (fresh engines per case,
   so each case exercises the cold-cache, warm-cache and uncached
   paths). *)
let qcheck_cached_equals_uncached =
  QCheck.Test.make ~count:(count 25)
    ~name:"engine: cached ≡ uncached ≡ reference on all semantics" seeds
    (fun seed ->
      let rand = rand_of seed in
      let num_vars = 1 + Random.State.int rand 5 in
      let db = Gen.dndb rand ~num_vars ~num_clauses:(2 * num_vars) in
      let x = Random.State.int rand num_vars in
      let f = Gen.random_formula rand num_vars ~depth:2 in
      let cached = Engine.create ~cache:true () in
      let uncached = Gen.ablation () in
      List.for_all
        (fun name ->
          let sc = Registry.in_exn cached name in
          let su = Registry.in_exn uncached name in
          let reference = Gen.reference_infer sc db in
          (not (sc.Semantics.applicable db))
          || List.for_all
               (fun ((q : Semantics.t -> bool), expect) ->
                 let a = q su in
                 q sc = a && Option.fold ~none:true ~some:(( = ) a) expect)
               [
                 ( (fun s -> s.Semantics.has_model db),
                   Gen.reference_has_model sc db );
                 ( (fun s -> s.Semantics.infer_literal db (Lit.Neg x)),
                   reference (Formula.Not (Formula.Atom x)) );
                 ( (fun s -> s.Semantics.infer_literal db (Lit.Pos x)),
                   reference (Formula.Atom x) );
                 (* twice: the second answer comes from the warm cache *)
                 ((fun s -> s.Semantics.infer_formula db f), reference f);
                 ((fun s -> s.Semantics.infer_formula db f), reference f);
               ])
        Registry.names)

let suites =
  [
    ( "differential",
      List.map QCheck_alcotest.to_alcotest
        [
          qcheck_ddr_implies_gcwa;
          qcheck_gcwa_implies_egcwa;
          qcheck_ecwa_equals_circ;
          qcheck_minimal_models_coincide;
          qcheck_cached_equals_uncached;
        ] );
  ]
