open Ddb_logic
open Ddb_db
open Ddb_workload

(* The closed-world procedures run on an engine; a cache-disabled one
   answers every query afresh. *)
let eng = Gen.ablation ()

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Rng --- *)

let rng_suite =
  [
    Alcotest.test_case "deterministic streams" `Quick (fun () ->
        let a = Rng.create 42 and b = Rng.create 42 in
        let xs = List.init 100 (fun _ -> Rng.int a 1000) in
        let ys = List.init 100 (fun _ -> Rng.int b 1000) in
        check "equal" true (xs = ys));
    Alcotest.test_case "different seeds differ" `Quick (fun () ->
        let a = Rng.create 1 and b = Rng.create 2 in
        let xs = List.init 50 (fun _ -> Rng.int a 1000) in
        let ys = List.init 50 (fun _ -> Rng.int b 1000) in
        check "different" true (xs <> ys));
    Alcotest.test_case "int stays in bounds" `Quick (fun () ->
        let rng = Rng.create 7 in
        check "bounds" true
          (List.for_all
             (fun _ ->
               let v = Rng.int rng 13 in
               v >= 0 && v < 13)
             (List.init 2000 Fun.id)));
    Alcotest.test_case "float in [0,1)" `Quick (fun () ->
        let rng = Rng.create 9 in
        check "bounds" true
          (List.for_all
             (fun _ ->
               let v = Rng.float rng in
               v >= 0.0 && v < 1.0)
             (List.init 2000 Fun.id)));
    Alcotest.test_case "rough uniformity" `Quick (fun () ->
        let rng = Rng.create 11 in
        let buckets = Array.make 4 0 in
        for _ = 1 to 4000 do
          let b = Rng.int rng 4 in
          buckets.(b) <- buckets.(b) + 1
        done;
        Array.iter (fun c -> check "bucket balance" true (c > 800 && c < 1200)) buckets);
    Alcotest.test_case "split independence" `Quick (fun () ->
        let parent = Rng.create 3 in
        let child = Rng.split parent in
        check "child evolves" true (Rng.int child 100 >= 0));
    Alcotest.test_case "huge bounds stay in range" `Quick (fun () ->
        (* Near the top of the 61-bit draw range rejection actually kicks
           in; the old [r mod bound] was visibly biased here. *)
        let rng = Rng.create 13 in
        let bound = (1 lsl 61) - 3 in
        check "bounds" true
          (List.for_all
             (fun _ ->
               let v = Rng.int rng bound in
               v >= 0 && v < bound)
             (List.init 200 Fun.id)));
    Alcotest.test_case "pick_arr agrees with pick" `Quick (fun () ->
        let xs = [ 3; 1; 4; 1; 5; 9; 2; 6 ] in
        let a = Rng.create 21 and b = Rng.create 21 in
        let via_list = List.init 50 (fun _ -> Rng.pick a xs) in
        let arr = Array.of_list xs in
        let via_arr = List.init 50 (fun _ -> Rng.pick_arr b arr) in
        check "same stream" true (via_list = via_arr));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:(Gen.qcheck_count 25)
         ~name:"Rng.int residues are balanced (no modulo bias)"
         QCheck.(pair (int_bound 999999) (int_range 2 13))
         (fun (seed, bound) ->
           let rng = Rng.create seed in
           let n = 300 * bound in
           let counts = Array.make bound 0 in
           for _ = 1 to n do
             let v = Rng.int rng bound in
             counts.(v) <- counts.(v) + 1
           done;
           (* expected 300 per residue; ±35 % is ≈6σ — deterministic
              failures here mean real bias, not noise. *)
           Array.for_all (fun c -> c > 195 && c < 405) counts));
  ]

(* --- Random_db profiles --- *)

let random_db_suite =
  [
    Alcotest.test_case "positive family is Table-1 shaped" `Quick (fun () ->
        List.iter
          (fun seed ->
            let db = Random_db.positive ~seed ~num_vars:12 in
            check "positive" true (Db.is_positive_ddb db))
          [ 0; 1; 2; 3; 4 ]);
    Alcotest.test_case "with_integrity stays negation-free" `Quick (fun () ->
        List.iter
          (fun seed ->
            let db = Random_db.with_integrity ~seed ~num_vars:20 in
            check "dddb" true (Db.is_dddb db))
          [ 0; 1; 2 ]);
    Alcotest.test_case "stratified family is stratified" `Quick (fun () ->
        List.iter
          (fun seed ->
            let db = Random_db.stratified ~seed ~num_vars:15 () in
            check "stratified" true (Stratify.is_stratified db))
          [ 0; 1; 2; 3; 4; 5; 6; 7 ]);
    Alcotest.test_case "generation is deterministic in the seed" `Quick
      (fun () ->
        let a = Random_db.normal ~seed:5 ~num_vars:10 in
        let b = Random_db.normal ~seed:5 ~num_vars:10 in
        check "same" true
          (List.for_all2 Clause.equal (Db.clauses a) (Db.clauses b)));
    Alcotest.test_case "formula stays in the universe" `Quick (fun () ->
        let f = Random_db.formula ~seed:3 ~num_vars:9 ~depth:4 in
        check "atoms in range" true (Formula.max_atom f < 9));
    Alcotest.test_case "random partition is a partition" `Quick (fun () ->
        (* Partition.make validates; surviving construction is the test. *)
        let _ = Random_db.random_partition ~seed:4 ~num_vars:11 in
        check "ok" true true);
  ]

(* --- Graph encodings --- *)

let graph_brute_colorable ~colors g =
  (* brute force: try all colourings *)
  let rec go assignment v =
    if v = g.Graph.vertices then
      List.for_all
        (fun (a, b) -> List.nth assignment a <> List.nth assignment b)
        g.Graph.edges
    else
      List.exists
        (fun c -> go (assignment @ [ c ]) (v + 1))
        (List.init colors Fun.id)
  in
  go [] 0

let graph_suite =
  [
    Alcotest.test_case "odd cycle needs 3, K4 needs 4" `Quick (fun () ->
        check "C5 3-col" true (Graph.is_colorable ~colors:3 (Graph.cycle 5));
        check "C5 not 2-col" false (Graph.is_colorable ~colors:2 (Graph.cycle 5));
        check "C6 2-col" true (Graph.is_colorable ~colors:2 (Graph.cycle 6)));
    Alcotest.test_case "coloring encodings match brute force" `Quick (fun () ->
        List.iter
          (fun seed ->
            let g = Graph.random_graph ~seed ~vertices:6 ~edge_prob:0.45 in
            check "agree" (graph_brute_colorable ~colors:3 g)
              (Graph.is_colorable ~colors:3 g))
          [ 0; 1; 2; 3; 4; 5; 6; 7 ]);
    Alcotest.test_case "minimal covers are covers and minimal" `Quick (fun () ->
        let g = Graph.random_graph ~seed:5 ~vertices:7 ~edge_prob:0.4 in
        let covers = Graph.minimal_vertex_covers g in
        check "nonempty family" true (covers <> [] || g.Graph.edges = []);
        List.iter
          (fun cover ->
            check "is a cover" true
              (List.for_all
                 (fun (u, v) -> Interp.mem cover u || Interp.mem cover v)
                 g.Graph.edges);
            Interp.iter
              (fun v ->
                (* removing any vertex breaks some edge *)
                let without = Interp.remove cover v in
                check "minimal" false
                  (List.for_all
                     (fun (a, b) -> Interp.mem without a || Interp.mem without b)
                     g.Graph.edges))
              cover)
          covers);
    Alcotest.test_case "isolated vertices never in covers" `Quick (fun () ->
        let g = { Graph.vertices = 4; edges = [ (0, 1) ] } in
        check "vertex 3 avoidable" true (Graph.never_in_minimal_cover eng g 3);
        check "vertex 0 usable" false (Graph.never_in_minimal_cover eng g 0));
  ]

(* --- Diagnosis --- *)

let diagnosis_suite =
  [
    Alcotest.test_case "healthy adder: empty diagnosis" `Quick (fun () ->
        let circuit, a, b, carry, sum =
          match Diagnosis.ripple_adder 2 with
          | c, a, b, cr, s -> (c, a, b, cr, s)
        in
        let bit v i = (v lsr i) land 1 = 1 in
        let observations =
          { Diagnosis.wire = carry.(0); value = false }
          :: List.concat
               (List.init 2 (fun i ->
                    [
                      { Diagnosis.wire = a.(i); value = bit 2 i };
                      { Diagnosis.wire = b.(i); value = bit 1 i };
                      { Diagnosis.wire = sum.(i); value = bit 3 i };
                    ]))
        in
        let diagnoses = Diagnosis.minimal_diagnoses circuit ~observations in
        check_int "one diagnosis" 1 (List.length diagnoses);
        check "the empty one" true
          (match diagnoses with [ d ] -> Interp.is_empty d | _ -> false));
    Alcotest.test_case "faulty adder: nonempty diagnoses" `Quick (fun () ->
        let circuit, observations =
          Diagnosis.faulty_adder_observations ~bits:2 ~a_val:1 ~b_val:2
            ~flip_bit:0
        in
        let diagnoses = Diagnosis.minimal_diagnoses circuit ~observations in
        check "some diagnosis" true (diagnoses <> []);
        check "all blame someone" true
          (List.for_all (fun d -> not (Interp.is_empty d)) diagnoses));
    Alcotest.test_case "healthy gates proven healthy" `Quick (fun () ->
        let circuit, observations =
          Diagnosis.faulty_adder_observations ~bits:2 ~a_val:1 ~b_val:2
            ~flip_bit:0
        in
        let diagnoses = Diagnosis.minimal_diagnoses circuit ~observations in
        let db, _, _ = Diagnosis.instance circuit ~observations in
        let vocab = Db.vocab db in
        List.iteri
          (fun g _ ->
            let ab = Vocab.intern vocab (Printf.sprintf "ab%d" g) in
            let in_some = List.exists (fun d -> Interp.mem d ab) diagnoses in
            check
              (Printf.sprintf "gate %d" g)
              (not in_some)
              (Diagnosis.certainly_healthy eng circuit ~observations g))
          circuit.Diagnosis.gates);
  ]

(* --- Pigeonhole --- *)

let pigeonhole_suite =
  [
    Alcotest.test_case "PHP(n+1,n) unsat, PHP(n,n) sat" `Quick (fun () ->
        List.iter
          (fun n ->
            let num_vars, cnf = Pigeonhole.unsat_instance n in
            check "unsat" false
              (Ddb_sat.Solver.solve (Ddb_sat.Solver.of_clauses ~num_vars cnf)
              = Ddb_sat.Solver.Sat);
            let num_vars, cnf = Pigeonhole.sat_instance n in
            check "sat" true
              (Ddb_sat.Solver.solve (Ddb_sat.Solver.of_clauses ~num_vars cnf)
              = Ddb_sat.Solver.Sat))
          [ 2; 3; 4; 5 ]);
  ]

(* --- QBF families and their images --- *)

let qbf_family_suite =
  [
    Alcotest.test_case "gcwa_hard image is a positive DDB" `Quick (fun () ->
        let db, w = Qbf_family.gcwa_hard ~seed:0 ~xs:3 ~ys:3 in
        check "positive" true (Db.is_positive_ddb db);
        check "w in range" true (w < Db.num_vars db));
    Alcotest.test_case "dsm_hard image is a DNDB without integrity" `Quick
      (fun () ->
        let db = Qbf_family.dsm_hard ~seed:0 ~xs:3 ~ys:3 in
        check "negation" true (Db.has_negation db);
        check "no integrity" true (not (Db.has_integrity db)));
    Alcotest.test_case "hard families agree with the QBF answer" `Quick
      (fun () ->
        List.iter
          (fun seed ->
            let qbf = Qbf_family.random_ef ~seed ~xs:2 ~ys:2 () in
            let valid = Ddb_qbf.Naive.valid qbf in
            let db, w = Ddb_core.Reductions.qbf_to_gcwa qbf in
            check "gcwa" (not valid)
              (Ddb_core.Gcwa.infer_literal_in eng db (Lit.Neg w));
            let db' = Ddb_core.Reductions.qbf_to_dsm_exists qbf in
            check "dsm" valid (Ddb_core.Dsm.has_model db'))
          [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]);
  ]

let suites =
  [
    ("workload.rng", rng_suite);
    ("workload.random_db", random_db_suite);
    ("workload.graph", graph_suite);
    ("workload.diagnosis", diagnosis_suite);
    ("workload.pigeonhole", pigeonhole_suite);
    ("workload.qbf_family", qbf_family_suite);
  ]
