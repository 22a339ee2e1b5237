open Ddb_logic
open Ddb_db
open Ddb_core

(* The closed-world procedures run on an engine; a cache-disabled one
   answers every query afresh. *)
let eng = Gen.ablation ()

let check = Alcotest.(check bool)

(* Oracle procedures (the registry record on an ablation engine) vs the
   reference engine, on every model-existence / literal / formula question
   over a random small database. *)
let engines_agree ?(only_applicable = true) name gen_db =
  let sem = Option.get (Registry.find name) in
  QCheck.Test.make ~count:250
    ~name:(Printf.sprintf "%s: oracle engine = reference engine" sem.Semantics.name)
    QCheck.(pair (int_bound 999999) (int_range 1 4))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db = gen_db rand ~num_vars ~num_clauses:(num_vars * 2) in
      if only_applicable && not (sem.Semantics.applicable db) then true
      else begin
        let reference = sem.Semantics.reference_models db in
        let ref_has = reference <> [] in
        let ref_infer f = List.for_all (fun m -> Formula.eval m f) reference in
        let f = Gen.random_formula rand num_vars ~depth:2 in
        let lit =
          let x = Gen.atom rand num_vars in
          if Random.State.bool rand then Lit.Pos x else Lit.Neg x
        in
        sem.Semantics.has_model db = ref_has
        && sem.Semantics.infer_formula db f = ref_infer f
        && sem.Semantics.infer_literal db lit
           = ref_infer (Formula.of_lit lit)
      end)

let agreement_tests =
  (* PDSM is excluded here: its model set is 3-valued, so the packed
     reference is not the entailment base; it gets its own tests below. *)
  List.map QCheck_alcotest.to_alcotest
    [
      engines_agree "cwa" Gen.dndb;
      engines_agree "gcwa" Gen.dndb;
      engines_agree "egcwa" Gen.dndb;
      engines_agree "ccwa" Gen.dndb;
      engines_agree "ecwa" Gen.dndb;
      engines_agree "circ" Gen.dndb;
      engines_agree "ddr" Gen.dddb_with_integrity;
      engines_agree "pws" Gen.dddb_with_integrity;
      engines_agree "perf" Gen.dndb;
      engines_agree "dsm" Gen.dndb;
      engines_agree "icwa" (fun rand ~num_vars ~num_clauses ->
          Gen.stratified_db rand ~num_vars ~num_clauses ~layers:2);
    ]

(* Partition-parametric engines against their references. *)
let qcheck_ccwa_partition =
  QCheck.Test.make ~count:250 ~name:"ccwa with random partition = reference"
    QCheck.(pair (int_bound 999999) (int_range 2 4))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db = Gen.dndb rand ~num_vars ~num_clauses:(num_vars * 2) in
      let part = Gen.random_partition rand num_vars in
      let reference = Ccwa.reference_models db part in
      let ref_infer f = List.for_all (fun m -> Formula.eval m f) reference in
      let f = Gen.random_formula rand num_vars ~depth:2 in
      let x = Gen.atom rand num_vars in
      let eng = Gen.ablation () in
      Ccwa.infer_formula_in eng db part f = ref_infer f
      && Ccwa.infer_literal_in eng db part (Lit.Neg x)
         = ref_infer (Formula.Not (Formula.Atom x)))

let qcheck_ecwa_partition =
  QCheck.Test.make ~count:250 ~name:"ecwa with random partition = reference"
    QCheck.(pair (int_bound 999999) (int_range 2 4))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db = Gen.dndb rand ~num_vars ~num_clauses:(num_vars * 2) in
      let part = Gen.random_partition rand num_vars in
      let reference = Ecwa.reference_models db part in
      let ref_infer f = List.for_all (fun m -> Formula.eval m f) reference in
      let f = Gen.random_formula rand num_vars ~depth:2 in
      Ecwa.infer_formula_in (Gen.ablation ()) db part f = ref_infer f)

(* --- the paper's equivalences --- *)

(* ECWA = CIRC (Lifschitz), with the two implementations fully disjoint:
   assumption-based minimality vs the primed circumscription schema. *)
let qcheck_ecwa_equals_circ =
  QCheck.Test.make ~count:250 ~name:"ECWA = CIRC (schema vs minimality)"
    QCheck.(pair (int_bound 999999) (int_range 1 4))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db = Gen.dndb rand ~num_vars ~num_clauses:(num_vars * 2) in
      let part = Gen.random_partition rand num_vars in
      let f = Gen.random_formula rand num_vars ~depth:2 in
      Ecwa.infer_formula_in (Gen.ablation ()) db part f
      = Circ.infer_formula db part f
      && Gen.interp_list_equal
           (Ecwa.reference_models db part)
           (Circ.reference_models db part))

(* EGCWA(DB) = MM(DB). *)
let qcheck_egcwa_is_mm =
  QCheck.Test.make ~count:250 ~name:"EGCWA models = minimal models"
    QCheck.(pair (int_bound 999999) (int_range 1 4))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db = Gen.dndb rand ~num_vars ~num_clauses:(num_vars * 2) in
      Gen.interp_list_equal
        (Egcwa.reference_models db)
        (Models.brute_minimal_models db))

(* On positive databases DSM(DB) = MM(DB) (reducts are identities). *)
let qcheck_dsm_positive_is_mm =
  QCheck.Test.make ~count:250 ~name:"DSM = MM on positive databases"
    QCheck.(pair (int_bound 999999) (int_range 1 4))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db = Gen.positive_db rand ~num_vars ~num_clauses:(num_vars * 2) in
      Gen.interp_list_equal (Dsm.reference_models db)
        (Models.brute_minimal_models db))

(* On positive databases perfect models = minimal models (no strict
   priorities), so PERF collapses onto EGCWA. *)
let qcheck_perf_positive_is_mm =
  QCheck.Test.make ~count:250 ~name:"PERF = MM on positive databases"
    QCheck.(pair (int_bound 999999) (int_range 1 4))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db = Gen.positive_db rand ~num_vars ~num_clauses:(num_vars * 2) in
      Gen.interp_list_equal (Perf.reference_models db)
        (Models.brute_minimal_models db))

(* GCWA = CCWA with the total partition. *)
let qcheck_gcwa_is_ccwa_total =
  QCheck.Test.make ~count:250 ~name:"GCWA = CCWA at Q = Z = ∅"
    QCheck.(pair (int_bound 999999) (int_range 1 4))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db = Gen.dndb rand ~num_vars ~num_clauses:(num_vars * 2) in
      let f = Gen.random_formula rand num_vars ~depth:2 in
      let eng = Gen.ablation () in
      Gcwa.infer_formula_in eng db f
      = Ccwa.infer_formula_in eng db (Partition.minimize_all num_vars) f)

(* Total (2-valued) partial stable models = disjunctive stable models. *)
let qcheck_pdsm_total_is_dsm =
  QCheck.Test.make ~count:200 ~name:"total PDSM models = DSM models"
    QCheck.(pair (int_bound 999999) (int_range 1 4))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db = Gen.dndb rand ~num_vars ~num_clauses:(num_vars * 2) in
      Gen.interp_list_equal (Pdsm.reference_models db) (Dsm.reference_models db))

(* PDSM oracle engine vs 3-valued brute force. *)
let qcheck_pdsm_engines_agree =
  QCheck.Test.make ~count:150 ~name:"pdsm: oracle engine = 3-valued reference"
    QCheck.(pair (int_bound 999999) (int_range 1 3))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db = Gen.dndb rand ~num_vars ~num_clauses:(num_vars * 2) in
      let reference = Pdsm.partial_stable_models db in
      let f = Gen.random_formula rand num_vars ~depth:2 in
      let ref_infer =
        List.for_all
          (fun i -> Three_valued.eval_formula i f = Three_valued.T)
          reference
      in
      Pdsm.has_model db = (reference <> [])
      && Pdsm.infer_formula db f = ref_infer)

(* The 3-valued minimality SAT check against explicit 3-valued search. *)
let qcheck_pdsm_stability_check =
  QCheck.Test.make ~count:150 ~name:"pdsm: SAT stability check = brute force"
    QCheck.(pair (int_bound 999999) (int_range 1 3))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db = Gen.dndb rand ~num_vars ~num_clauses:(num_vars * 2) in
      List.for_all
        (fun i ->
          let brute_stable =
            Pdsm.satisfies_db db i
            && not
                 (List.exists
                    (fun j ->
                      Three_valued.lt j i
                      && Reduct.satisfies_three_valued j (Reduct.three_valued db i))
                    (Three_valued.all num_vars))
          in
          Pdsm.is_partial_stable db i = brute_stable)
        (Three_valued.all num_vars))

(* --- stable models: textbook cases --- *)

let dsm_unit =
  [
    Alcotest.test_case "even loop: two stable models" `Quick (fun () ->
        let db = Db.of_string "a :- not b. b :- not a." in
        let i = Interp.of_list (Db.num_vars db) in
        check "two" true
          (Gen.interp_list_equal (Dsm.reference_models db) [ i [ 0 ]; i [ 1 ] ]);
        check "oracle agrees" true
          (Gen.interp_list_equal (Dsm.stable_models db) [ i [ 0 ]; i [ 1 ] ]));
    Alcotest.test_case "odd loop: no stable model" `Quick (fun () ->
        let db = Db.of_string "a :- not a." in
        check "none" false (Dsm.has_model db));
    Alcotest.test_case "disjunctive stable: a v b" `Quick (fun () ->
        let db = Db.of_string "a | b." in
        let i = Interp.of_list (Db.num_vars db) in
        check "minimal ones" true
          (Gen.interp_list_equal (Dsm.stable_models db) [ i [ 0 ]; i [ 1 ] ]));
    Alcotest.test_case "constraint kills stable model" `Quick (fun () ->
        let db = Db.of_string "a :- not b. :- a." in
        check "none" false (Dsm.has_model db));
    Alcotest.test_case "supported but not stable" `Quick (fun () ->
        (* a :- a has the models {} and {a}; only {} is stable. *)
        let db = Db.of_string "a :- a. b." in
        let i = Interp.of_list (Db.num_vars db) in
        check "only {b}" true
          (Gen.interp_list_equal (Dsm.stable_models db) [ i [ 1 ] ]));
  ]

(* The stability checker against the definitional reduct check, one
   checker reused over every interpretation: M = ∅, non-models (M ⊭ DB^M)
   and models alike.  Both must also make the same number of SAT calls —
   the checker skips its solve exactly where the reduct path does. *)
let qcheck_dsm_checker_reused =
  QCheck.Test.make ~count:(Gen.qcheck_count 100)
    ~name:"one DSM checker over all interpretations = reduct is_stable"
    QCheck.(pair (int_bound 99999) (int_range 1 8))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db = Gen.dndb rand ~num_vars ~num_clauses:(num_vars * 2) in
      let c = Dsm.checker db in
      let counted f =
        let before = Ddb_sat.Stats.snapshot () in
        let r = f () in
        (r, (Ddb_sat.Stats.delta before).Ddb_sat.Stats.sat)
      in
      List.for_all
        (fun m ->
          counted (fun () -> Dsm.is_stable_with c m)
          = counted (fun () -> Dsm.is_stable db m))
        (Interp.all num_vars))

let pdsm_unit =
  [
    Alcotest.test_case "odd loop: a undefined" `Quick (fun () ->
        let db = Db.of_string "a :- not a." in
        let psms = Pdsm.partial_stable_models db in
        check "exactly one" true (List.length psms = 1);
        (match psms with
        | [ i ] ->
          check "a = 1/2" true (Three_valued.value i 0 = Three_valued.U)
        | _ -> Alcotest.fail "expected one"));
    Alcotest.test_case "even loop: three PSMs" `Quick (fun () ->
        (* {a}, {b} and the well-founded all-undefined model. *)
        let db = Db.of_string "a :- not b. b :- not a." in
        check "three" true (List.length (Pdsm.partial_stable_models db) = 3));
    Alcotest.test_case "fact is certain" `Quick (fun () ->
        let db = Db.of_string "a." in
        check "infers a" true (Pdsm.infer_literal db (Lit.Pos 0)));
  ]

let icwa_unit =
  [
    Alcotest.test_case "stratified consistency is O(1)" `Quick (fun () ->
        check "yes" true (Icwa.has_model (Db.of_string "b. a :- not b."));
        check "no (unstratified)" false (Icwa.has_model (Db.of_string "a :- not a.")));
    Alcotest.test_case "integrity clauses can empty ICWA" `Quick (fun () ->
        (* Stratified, but the integrity clause excludes every model. *)
        let db = Db.of_string "a | b. c :- not a. :- c. :- a." in
        let s = Registry.in_exn eng "icwa" in
        check "no model" false (Icwa.has_model db);
        check "engine: no model" false (s.Semantics.has_model db);
        check "reference: no model" true (Icwa.semantics.Semantics.reference_models db = []);
        check "consistent: model" true
          (s.Semantics.has_model (Db.of_string "a | b. c :- not a. :- a.")));
    Alcotest.test_case "icwa on b :- not a infers b" `Quick (fun () ->
        let db = Db.of_string "b :- not a." in
        let vocab = Db.vocab db in
        let part = Partition.minimize_all (Db.num_vars db) in
        check "b" true (Icwa.infer_formula db part (Parse.formula vocab "b"));
        check "not a" true
          (Icwa.infer_formula db part (Parse.formula vocab "~a")));
  ]

(* ICWA captures PERF on stratified databases (the purpose it was introduced
   for): with the total partition, the ICWA model set coincides with the
   perfect models. *)
let qcheck_icwa_captures_perf =
  QCheck.Test.make ~count:200 ~name:"ICWA = PERF on stratified databases"
    QCheck.(pair (int_bound 999999) (int_range 2 4))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db =
        Gen.stratified_db rand ~num_vars ~num_clauses:(num_vars * 2) ~layers:2
      in
      let part = Partition.minimize_all num_vars in
      Gen.interp_list_equal
        (Icwa.reference_models db part)
        (Perf.reference_models db))

(* --- oracle algorithms: the P^Σ₂ᵖ[O(log n)] machinery --- *)

let oracle_alg_unit =
  [
    Alcotest.test_case "log bound respected" `Quick (fun () ->
        let db = Db.of_string "a | b. c | d. e :- a." in
        let report = Oracle_algorithms.gcwa_formula_in eng db (Formula.Atom 4) in
        check "within bound" true
          (report.Oracle_algorithms.sigma2_queries
          <= Oracle_algorithms.log_bound report.Oracle_algorithms.p_size));
  ]

let qcheck_oracle_log_agrees =
  QCheck.Test.make ~count:250
    ~name:"log-oracle GCWA/CCWA inference = CCWA procedure, within bound"
    QCheck.(pair (int_bound 999999) (int_range 1 4))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db = Gen.dndb rand ~num_vars ~num_clauses:(num_vars * 2) in
      let part = Gen.random_partition rand num_vars in
      let f = Gen.random_formula rand num_vars ~depth:2 in
      let log_report = Oracle_algorithms.entails_log_in eng db part f in
      let linear_report = Oracle_algorithms.entails_linear db part f in
      let direct = Ccwa.infer_formula_in eng db part f in
      log_report.Oracle_algorithms.answer = direct
      && linear_report.Oracle_algorithms.answer = direct
      && log_report.Oracle_algorithms.sigma2_queries
         <= Oracle_algorithms.log_bound (Interp.cardinal (Partition.p part)))

(* --- reductions --- *)

let gen_ef_qbf seed =
  let rand = Random.State.make [| seed |] in
  let n1 = 1 + Random.State.int rand 2 in
  let n2 = 1 + Random.State.int rand 2 in
  let block1 = List.init n1 Fun.id in
  let block2 = List.init n2 (fun i -> n1 + i) in
  let matrix = Gen.random_formula rand (n1 + n2) ~depth:2 in
  (* ensure the matrix only mentions quantified atoms: Gen.random_formula
     draws from [0, n1+n2), which is exactly the quantified set *)
  Ddb_qbf.Qbf.make ~prefix:Ddb_qbf.Qbf.Exists_forall ~num_vars:(n1 + n2)
    ~block1 ~block2 ~matrix

let qcheck_qbf_to_gcwa =
  QCheck.Test.make ~count:250
    ~name:"reduction: QBF validity = w in some minimal model = ¬(GCWA ⊨ ¬w)"
    QCheck.(int_bound 999999)
    (fun seed ->
      let qbf = gen_ef_qbf seed in
      let db, w = Reductions.qbf_to_gcwa qbf in
      let valid = Ddb_qbf.Naive.valid qbf in
      Reductions.gcwa_image_answer db w = valid
      && Gcwa.infer_literal_in eng db (Lit.Neg w) = not valid
      && Egcwa.infer_literal_in eng db (Lit.Neg w) = not valid)

let qcheck_qbf_to_dsm =
  QCheck.Test.make ~count:250
    ~name:"reduction: QBF validity = DSM model existence"
    QCheck.(int_bound 999999)
    (fun seed ->
      let qbf = gen_ef_qbf seed in
      let db = Reductions.qbf_to_dsm_exists qbf in
      Dsm.has_model db = Ddb_qbf.Naive.valid qbf)

let qcheck_sat_to_egcwa =
  QCheck.Test.make ~count:250
    ~name:"reduction: CNF satisfiability = EGCWA model existence"
    QCheck.(pair (int_bound 999999) (int_range 1 5))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let cnf =
        List.init (num_vars * 2) (fun _ ->
            let len = 1 + Random.State.int rand 3 in
            List.init len (fun _ ->
                let v = Random.State.int rand num_vars in
                if Random.State.bool rand then Lit.Pos v else Lit.Neg v))
      in
      let db = Reductions.sat_to_egcwa_exists ~num_vars cnf in
      Egcwa.has_model_in eng db
      = Ddb_sat.Brute.is_sat ~num_vars cnf)

let qcheck_uminsat =
  QCheck.Test.make ~count:250 ~name:"UMINSAT = brute unique-minimal-model"
    QCheck.(pair (int_bound 999999) (int_range 1 4))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db = Gen.dndb rand ~num_vars ~num_clauses:(num_vars * 2) in
      Reductions.has_unique_minimal_model db
      = (List.length (Models.brute_minimal_models db) = 1))

(* --- tractable cells --- *)

let qcheck_ddr_pws_poly_literal =
  QCheck.Test.make ~count:250
    ~name:"DDR/PWS negative-literal inference: poly path = reference"
    QCheck.(pair (int_bound 999999) (int_range 1 4))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db = Gen.positive_db rand ~num_vars ~num_clauses:(num_vars * 2) in
      let x = Gen.atom rand num_vars in
      let ddr_ref =
        List.for_all
          (fun m -> not (Interp.mem m x))
          (Ddr.reference_models db)
      in
      let pws_ref =
        List.for_all
          (fun m -> not (Interp.mem m x))
          (Pws.reference_models db)
      in
      Ddr.infer_literal_in eng db (Lit.Neg x) = ddr_ref
      && Pws.infer_literal db (Lit.Neg x) = pws_ref)

(* Zero oracle calls on the tractable paths. *)
let poly_no_oracle_unit =
  [
    Alcotest.test_case "DDR literal path makes no SAT calls" `Quick (fun () ->
        let db = Db.of_string "a | b. c :- a, b. d :- c." in
        let before = Ddb_sat.Stats.snapshot () in
        ignore (Ddr.infer_literal_in eng db (Lit.Neg 3));
        let delta = Ddb_sat.Stats.delta before in
        check "no sat calls" true (delta.Ddb_sat.Stats.sat = 0);
        check "no sigma2 calls" true (delta.Ddb_sat.Stats.sigma2 = 0));
    Alcotest.test_case "EGCWA existence is O(1) on Table-1 DBs" `Quick
      (fun () ->
        let db = Db.of_string "a | b. c :- a." in
        let before = Ddb_sat.Stats.snapshot () in
        check "exists" true (Egcwa.has_model_in eng db);
        check "no oracle" true ((Ddb_sat.Stats.delta before).Ddb_sat.Stats.sat = 0));
    Alcotest.test_case "ICWA existence is O(1) given stratification" `Quick
      (fun () ->
        let db = Db.of_string "b. a :- not b." in
        let before = Ddb_sat.Stats.snapshot () in
        check "exists" true (Icwa.has_model db);
        check "no oracle" true ((Ddb_sat.Stats.delta before).Ddb_sat.Stats.sat = 0));
  ]

(* The poly shortcut's precondition: it is only sound without integrity
   clauses (Example 3.1), and [Ddr] enforces that with Invalid_argument. *)
let ddr_poly_precondition_unit =
  [
    Alcotest.test_case "entails_neg_literal_poly rejects integrity clauses"
      `Quick (fun () ->
        let db = Db.of_string "a | b. :- a, b." in
        Alcotest.check_raises "precondition"
          (Invalid_argument
             "Ddr.entails_neg_literal_poly: integrity clauses present")
          (fun () -> ignore (Ddr.entails_neg_literal_poly db 0)));
    Alcotest.test_case "entails_neg_literal_poly rejects negation" `Quick
      (fun () ->
        let db = Db.of_string "a :- not b." in
        Alcotest.check_raises "DDDB only"
          (Invalid_argument "Ddr: the DDR is defined for DDDBs (no negation)")
          (fun () -> ignore (Ddr.entails_neg_literal_poly db 0)));
    Alcotest.test_case "atoms outside the universe are trivially negated"
      `Quick (fun () ->
        let db = Db.of_string "a | b." in
        check "x >= n" true (Ddr.entails_neg_literal_poly db (Db.num_vars db)));
  ]

(* On integrity-clause-free DDDBs the shortcut must agree with both literal
   entry points: [infer_literal] (which routes negatives through it) and the
   general SAT path [infer_formula] on ¬x. *)
let qcheck_ddr_poly_agrees =
  QCheck.Test.make ~count:250
    ~name:"DDR poly shortcut = infer_literal = infer_formula (no ICs)"
    QCheck.(pair (int_bound 999999) (int_range 1 5))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db = Gen.positive_db rand ~num_vars ~num_clauses:(num_vars * 2) in
      List.for_all
        (fun x ->
          let poly = Ddr.entails_neg_literal_poly db x in
          poly = Ddr.infer_literal_in eng db (Lit.Neg x)
          && poly = Ddr.infer_formula_in eng db (Formula.Not (Formula.Atom x)))
        (List.init num_vars Fun.id))

(* --- paper Example 3.1: DDR vs GCWA on integrity-blind inference --- *)

let example_31 =
  [
    Alcotest.test_case "Example 3.1: DDR misses ¬c, GCWA gets it" `Quick
      (fun () ->
        let db = Db.of_string "a | b. :- a, b. c :- a, b." in
        let c = 2 in
        check "DDR does not infer ~c" false (Ddr.infer_literal_in eng db (Lit.Neg c));
        check "GCWA infers ~c" true (Gcwa.infer_literal_in eng db (Lit.Neg c));
        check "EGCWA infers ~c" true (Egcwa.infer_literal_in eng db (Lit.Neg c)));
  ]

let suites =
  [
    ("semantics.agreement", agreement_tests);
    ( "semantics.partitioned",
      List.map QCheck_alcotest.to_alcotest
        [ qcheck_ccwa_partition; qcheck_ecwa_partition ] );
    ( "semantics.identities",
      List.map QCheck_alcotest.to_alcotest
        [
          qcheck_ecwa_equals_circ;
          qcheck_egcwa_is_mm;
          qcheck_dsm_positive_is_mm;
          qcheck_perf_positive_is_mm;
          qcheck_gcwa_is_ccwa_total;
          qcheck_pdsm_total_is_dsm;
          qcheck_icwa_captures_perf;
        ] );
    ("semantics.dsm", dsm_unit);
    ( "semantics.dsm.properties",
      [ QCheck_alcotest.to_alcotest qcheck_dsm_checker_reused ] );
    ("semantics.pdsm", pdsm_unit);
    ( "semantics.pdsm.properties",
      List.map QCheck_alcotest.to_alcotest
        [ qcheck_pdsm_engines_agree; qcheck_pdsm_stability_check ] );
    ("semantics.icwa", icwa_unit);
    ("semantics.oracle", oracle_alg_unit);
    ( "semantics.oracle.properties",
      [ QCheck_alcotest.to_alcotest qcheck_oracle_log_agrees ] );
    ( "semantics.reductions",
      List.map QCheck_alcotest.to_alcotest
        [
          qcheck_qbf_to_gcwa;
          qcheck_qbf_to_dsm;
          qcheck_sat_to_egcwa;
          qcheck_uminsat;
        ] );
    ( "semantics.tractable",
      QCheck_alcotest.to_alcotest qcheck_ddr_pws_poly_literal
      :: QCheck_alcotest.to_alcotest qcheck_ddr_poly_agrees
      :: (poly_no_oracle_unit @ ddr_poly_precondition_unit) );
    ("semantics.example31", example_31);
  ]
