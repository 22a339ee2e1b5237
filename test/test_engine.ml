open Ddb_logic
open Ddb_db
open Ddb_core
open Ddb_workload
open Alcotest
module Engine = Ddb_engine.Engine
module Stats = Ddb_sat.Stats

(* Tests for the shared memoizing oracle engine: cache soundness (cached,
   fast-path-free uncached and brute-force reference evaluations agree on
   every registry semantics), instrumentation (solver counters are
   monotone and the engine's attribution matches the global Stats deltas),
   and the hash-consed theory keys. *)

(* --- cache soundness --- *)

(* The seeded workloads the three evaluations are compared on.  PDSM
   enumerates 3^n partial interpretations, so it only runs on the small
   universes. *)
let workloads =
  [
    ("positive-7", Random_db.positive ~seed:11 ~num_vars:7);
    ("integrity-7", Random_db.with_integrity ~seed:12 ~num_vars:7);
    ("stratified-6", Random_db.stratified ~seed:13 ~num_vars:6 ());
    ("normal-6", Random_db.normal ~seed:14 ~num_vars:6);
  ]

let runs_on (s : Semantics.t) db =
  s.Semantics.applicable db
  && (s.Semantics.name <> "pdsm" || Db.num_vars db <= 6)

let cache_soundness () =
  let cached = Engine.create ~cache:true () in
  let uncached = Engine.create ~cache:false ~fastpath:false () in
  List.iter
    (fun (wname, db) ->
      let n = Db.num_vars db in
      let queries =
        List.concat_map (fun x -> [ Lit.Neg x; Lit.Pos x ]) (List.init n Fun.id)
      in
      let formulas =
        List.map
          (fun seed -> Random_db.formula ~seed ~num_vars:n ~depth:3)
          [ 21; 22; 23 ]
      in
      List.iter
        (fun name ->
          let sc = Registry.in_exn cached name in
          let su = Registry.in_exn uncached name in
          if runs_on sc db then begin
            (* cached ≡ uncached, and both ≡ the reference where it applies *)
            let agree op reference ask =
              let ctx = Printf.sprintf "%s/%s %s" wname name op in
              let expect = ask su in
              check bool (ctx ^ "/cached") expect (ask sc);
              Option.iter (fun r -> check bool (ctx ^ "/reference") r expect)
                reference
            in
            agree "has_model" (Gen.reference_has_model sc db) (fun s ->
                s.Semantics.has_model db);
            List.iter
              (fun l ->
                agree "literal"
                  (Gen.reference_infer sc db (Formula.of_lit l))
                  (fun s -> s.Semantics.infer_literal db l))
              queries;
            List.iter
              (fun f ->
                agree "formula" (Gen.reference_infer sc db f) (fun s ->
                    s.Semantics.infer_formula db f))
              formulas
          end)
        Registry.names)
    workloads;
  check bool "cached engine recorded hits" true
    ((Engine.totals cached).Engine.cache_hits > 0);
  check bool "uncached engine never consults the cache" true
    ((Engine.totals uncached).Engine.cache_hits = 0)

let pm_lits n =
  List.concat_map (fun x -> [ Lit.Neg x; Lit.Pos x ]) (List.init n Fun.id)

(* A literal query and the same query as a formula agree under every
   registry semantics, also for atoms up to two past the universe (both
   are padded to cover them), on the ablation engine, a cached engine and
   a cached fast-path engine. *)
let qcheck_literal_is_formula =
  QCheck.Test.make ~count:(Gen.qcheck_count 40)
    ~name:"literal ≡ formula of the literal, atoms up to n+2, every engine"
    (QCheck.int_bound 999999) (fun seed ->
      let rand = Random.State.make [| seed |] in
      let num_vars = 1 + Random.State.int rand 4 in
      let db = Gen.family_db seed rand ~num_vars in
      let lits = pm_lits (num_vars + 3) in
      List.for_all
        (fun eng ->
          List.for_all
            (fun (s : Semantics.t) ->
              (not (s.Semantics.applicable db))
              || List.for_all
                   (fun l ->
                     s.Semantics.infer_literal db l
                     = s.Semantics.infer_formula db (Formula.of_lit l))
                   lits)
            (Gen.records eng))
        [
          Gen.ablation ();
          Engine.create ~fastpath:false ();
          Engine.create ();
        ])

(* Engine primitives against their fresh-solver and brute-force
   counterparts. *)
let primitive_soundness () =
  let eng = Engine.create () in
  List.iter
    (fun seed ->
      let db = Random_db.with_integrity ~seed ~num_vars:6 in
      let part = Partition.minimize_all (Db.num_vars db) in
      check bool "sat = Models.has_model" (Models.has_model db)
        (Engine.sat eng db);
      check bool "support_set = brute force" true
        (Interp.equal
           (Mm.brute_support_set db part)
           (Engine.support_set eng db part));
      check bool "minimal_models = brute" true
        (Gen.interp_list_equal
           (Models.brute_minimal_models db)
           (Engine.minimal_models eng db));
      let models = Models.brute_models db in
      let brute_non_entailed =
        Interp.of_pred (Db.num_vars db) (fun x ->
            List.exists (fun m -> not (Interp.mem m x)) models)
      in
      check bool "non_entailed_atoms = brute force" true
        (Interp.equal brute_non_entailed (Engine.non_entailed_atoms eng db));
      check bool "Models.non_entailed_atoms = brute force" true
        (Interp.equal brute_non_entailed (Models.non_entailed_atoms db)))
    [ 31; 32; 33 ]

(* A repeated query must be answered entirely from the memo tables: the
   second sweep adds zero SAT solve calls. *)
let repeat_queries_hit_cache () =
  let eng = Engine.create () in
  let db = Random_db.positive ~seed:5 ~num_vars:8 in
  let s = Gcwa.semantics_in eng in
  let sweep () =
    for x = 0 to Db.num_vars db - 1 do
      ignore (s.Semantics.infer_literal db (Lit.Neg x));
      ignore (s.Semantics.infer_literal db (Lit.Pos x))
    done
  in
  sweep ();
  let first = (Engine.totals eng).Engine.sat_solve_calls in
  check bool "first sweep does solve" true (first > 0);
  sweep ();
  let second = (Engine.totals eng).Engine.sat_solve_calls in
  check int "second sweep is free" first second;
  check bool "hits recorded" true ((Engine.totals eng).Engine.cache_hits > 0)

(* --- support sets and the ¬x query --- *)

let rand_of seed = Random.State.make [| seed |]

(* A random family database with a random ⟨P;Q;Z⟩ partition. *)
let partitioned_db seed ~max_vars =
  let rand = rand_of seed in
  let num_vars = 1 + Random.State.int rand max_vars in
  let db = Gen.family_db seed rand ~num_vars in
  (rand, db, Gen.random_partition rand num_vars)

(* The SAT solve calls [f] makes, with its result. *)
let sat_calls f =
  let before = Stats.snapshot () in
  let r = f () in
  (r, (Stats.delta before).Stats.sat)

(* The one-search support set is the brute-force one, and every x ∈ P gets
   the brute-force answer from a cold cached engine (asked twice: the
   second answer is memoized), from a cached engine whose support set is
   memoized (no new SAT call), and from an uncached engine. *)
let qcheck_support_set =
  QCheck.Test.make ~count:(Gen.qcheck_count 100)
    ~name:"support set and in_some_minimal ≡ brute force on every path"
    (QCheck.int_bound 999999) (fun seed ->
      let _, db, part = partitioned_db seed ~max_vars:6 in
      let brute = Mm.brute_support_set db part in
      let memoized = Engine.create () in
      let uncached = Engine.create ~cache:false () in
      Interp.equal (Ddb_sat.Minimal.support_set (Db.theory db) part) brute
      && Interp.equal (Engine.support_set uncached db part) brute
      && Interp.equal (Engine.support_set memoized db part) brute
      && List.for_all
           (fun x ->
             let expect = Interp.mem brute x in
             let cold = Engine.create () in
             Engine.in_some_minimal cold db part x = expect
             && sat_calls (fun () -> Engine.in_some_minimal cold db part x)
                = (expect, 0)
             && sat_calls (fun () -> Engine.in_some_minimal memoized db part x)
                = (expect, 0)
             && Engine.in_some_minimal uncached db part x = expect)
           (Interp.to_list (Partition.p part)))

(* A cold cached engine pays exactly what the uncached engine pays for a
   GCWA or CCWA ¬x query: the same single minimal-model search. *)
let qcheck_cold_literal_cost =
  QCheck.Test.make ~count:(Gen.qcheck_count 100)
    ~name:"cold cached GCWA/CCWA ¬x makes the uncached engine's SAT calls"
    (QCheck.int_bound 999999) (fun seed ->
      let rand, db, part = partitioned_db seed ~max_vars:8 in
      let cost query cache =
        sat_calls (fun () -> query (Engine.create ~cache ()))
      in
      let same query = cost query true = cost query false in
      let x = Random.State.int rand (Db.num_vars db) in
      same (fun eng ->
          (Gcwa.semantics_in eng).Semantics.infer_literal db (Lit.Neg x))
      &&
      match Interp.to_list (Partition.p part) with
      | [] -> true
      | p ->
        let x = List.nth p (Random.State.int rand (List.length p)) in
        same (fun eng -> Ccwa.infer_literal_in eng db part (Lit.Neg x)))

(* [in_some_minimal] is defined on P only: both engines reject Q and Z
   atoms and atoms outside the universe, also once the support set is
   memoized. *)
let in_some_minimal_rejects_non_p () =
  let db = Db.of_string "a | b. c :- a." in
  let part = Partition.of_lists 3 ~p:[ 0 ] ~q:[ 1 ] ~z:[ 2 ] in
  let memoized = Engine.create () in
  ignore (Engine.support_set memoized db part);
  List.iter
    (fun (what, eng) ->
      check bool (what ^ ": P atom") true
        (Engine.in_some_minimal eng db part 0);
      List.iter
        (fun x ->
          match Engine.in_some_minimal eng db part x with
          | _ -> failf "%s: atom %d outside P accepted" what x
          | exception Invalid_argument _ -> ())
        [ 1; 2; 3; -1 ])
    [
      ("cached", Engine.create ());
      ("memoized", memoized);
      ("uncached", Engine.create ~cache:false ());
    ]

(* --- instrumentation --- *)

(* Fixed pigeonhole instance: the global conflict/decision/propagation
   counters must move, and must be monotone across repeated solves. *)
let pigeonhole_counters_monotone () =
  let num_vars, cnf = Pigeonhole.unsat_instance 4 in
  let before = Stats.snapshot () in
  let solve () =
    let s = Ddb_sat.Solver.of_clauses ~num_vars cnf in
    check bool "PHP(5,4) unsat" true (Ddb_sat.Solver.solve s = Ddb_sat.Solver.Unsat)
  in
  solve ();
  let d1 = Stats.delta before in
  check int "one solve call" 1 d1.Stats.sat;
  check bool "conflicts counted" true (d1.Stats.conflicts > 0);
  check bool "decisions counted" true (d1.Stats.decisions > 0);
  check bool "propagations counted" true (d1.Stats.propagations > 0);
  solve ();
  let d2 = Stats.delta before in
  check int "two solve calls" 2 d2.Stats.sat;
  check bool "conflicts monotone" true (d2.Stats.conflicts >= d1.Stats.conflicts);
  check bool "decisions monotone" true (d2.Stats.decisions >= d1.Stats.decisions);
  check bool "propagations monotone" true
    (d2.Stats.propagations >= d1.Stats.propagations);
  (* identical deterministic instance: the second solve costs the same *)
  check int "conflicts deterministic" (2 * d1.Stats.conflicts) d2.Stats.conflicts

(* The engine's per-scope attribution must agree with the global Stats
   deltas over the same window. *)
let engine_stats_match_global () =
  let eng = Engine.create () in
  let db = Random_db.with_integrity ~seed:9 ~num_vars:7 in
  let before = Stats.snapshot () in
  for x = 0 to Db.num_vars db - 1 do
    ignore (Gcwa.infer_literal_in eng db (Lit.Neg x))
  done;
  let d = Stats.delta before in
  let t = Engine.totals eng in
  check int "sat calls attributed" d.Stats.sat t.Engine.sat_solve_calls;
  check int "conflicts attributed" d.Stats.conflicts t.Engine.sat_conflicts;
  check int "decisions attributed" d.Stats.decisions t.Engine.sat_decisions;
  check int "propagations attributed" d.Stats.propagations
    t.Engine.sat_propagations;
  match Engine.per_scope eng with
  | [ g ] ->
    check string "single gcwa scope" "gcwa" g.Engine.scope;
    check int "scope sat = total sat" t.Engine.sat_solve_calls
      g.Engine.sat_solve_calls
  | scopes ->
    failf "expected one scope, got %d" (List.length scopes)

let stats_json_sanity () =
  let eng = Engine.create () in
  let db = Random_db.positive ~seed:3 ~num_vars:5 in
  ignore (Gcwa.infer_formula_in eng db (Formula.Atom 0));
  let json = Engine.stats_json eng in
  let has needle =
    let nl = String.length needle and jl = String.length json in
    let rec go i = i + nl <= jl && (String.sub json i nl = needle || go (i + 1)) in
    go 0
  in
  check bool "object" true (String.length json > 0 && json.[0] = '{');
  check bool "cache flag" true (has "\"cache\":true");
  check bool "totals present" true (has "\"cache_hits\"");
  check bool "gcwa bucket present" true (has "\"gcwa\"")

(* --- canonical theory keys --- *)

let theory_key_canonical () =
  let eng = Engine.create () in
  let vocab = Vocab.of_size 3 in
  let c1 = Clause.make ~head:[ 0; 1 ] ~pos:[] ~neg:[] in
  let c2 = Clause.make ~head:[ 2 ] ~pos:[ 0 ] ~neg:[] in
  let db1 = Db.make ~vocab [ c1; c2 ] in
  (* permuted clauses, duplicated clause, permuted head *)
  let db2 =
    Db.make ~vocab [ c2; Clause.make ~head:[ 1; 0 ] ~pos:[] ~neg:[]; c1 ]
  in
  let db3 = Db.make ~vocab [ c1 ] in
  check int "permutation/duplication invariant" (Engine.theory_key eng db1)
    (Engine.theory_key eng db2);
  check bool "different theory, different key" true
    (Engine.theory_key eng db1 <> Engine.theory_key eng db3)

(* The specification of theory keys: the universe size and the clause set
   canonicalized from scratch (packed literals sorted within each clause,
   clauses sorted and deduplicated). *)
let reference_key db =
  let clause lits =
    List.sort_uniq Int.compare (List.map Ddb_sat.Cnf.plit_of_lit lits)
  in
  ( Db.num_vars db,
    List.sort_uniq (List.compare Int.compare) (List.map clause (Db.to_cnf db))
  )

let shuffle rand l =
  List.map (fun x -> (Random.State.bits rand, x)) l
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map snd

(* A separately built copy over the same universe: clauses and their
   literals shuffled, some clauses duplicated. *)
let rebuild rand db =
  let clauses = Db.clauses db in
  let dups = List.filter (fun _ -> Random.State.bool rand) clauses in
  let permute c =
    Clause.make
      ~head:(shuffle rand (Clause.head c))
      ~pos:(shuffle rand (Clause.body_pos c))
      ~neg:(shuffle rand (Clause.body_neg c))
  in
  Db.make
    ~vocab:(Vocab.of_size (Db.num_vars db))
    (List.map permute (shuffle rand (clauses @ dups)))

(* Small universes and few clauses, so distinct draws often coincide. *)
let key_pool rand =
  List.concat_map
    (fun _ ->
      let num_vars = 1 + Random.State.int rand 3 in
      let db =
        Gen.dndb rand ~num_vars ~num_clauses:(Random.State.int rand 4)
      in
      let padded = Db.with_universe db (num_vars + 1) in
      [ db; rebuild rand db; padded; rebuild rand padded ])
    [ 1; 2; 3; 4 ]

let qcheck_theory_keys =
  QCheck.Test.make ~count:(Gen.qcheck_count 100)
    ~name:"theory keys: equal iff (universe, reference form) equal"
    (QCheck.int_bound 999999) (fun seed ->
      let rand = rand_of seed in
      let pool = key_pool rand in
      let eng = Engine.create () and second = Engine.create () in
      let keys = List.map (Engine.theory_key eng) pool in
      let refs = List.map reference_key pool in
      let pairs = List.combine keys refs in
      (* the cached form is the reference form *)
      List.for_all
        (fun db ->
          Db.canonical_form (Db.canonical db) = snd (reference_key db))
        pool
      (* key equality ⇔ reference equality, over every pair *)
      && List.for_all
           (fun (k, r) ->
             List.for_all (fun (k', r') -> (k = k') = (r = r')) pairs)
           pairs
      (* a padded copy gets its own key *)
      && List.for_all
           (fun db ->
             Engine.theory_key eng db
             <> Engine.theory_key eng
                  (Db.with_universe db (Db.num_vars db + 1)))
           pool
      (* separately built copies, asked in the same order through a second
         engine, get the same keys; repeats on the first engine are stable *)
      && List.map (fun db -> Engine.theory_key second (rebuild rand db)) pool
         = keys
      && List.map (Engine.theory_key eng) pool = keys)

(* Every ± literal and existence under a few registry semantics. *)
let key_answers eng db =
  let lits = pm_lits (Db.num_vars db) in
  List.filter_map
    (fun sem ->
      match Registry.find_in eng sem with
      | Some s when s.Semantics.applicable db ->
        Some
          ( sem,
            s.Semantics.has_model db,
            List.map (s.Semantics.infer_literal db) lits )
      | _ -> None)
    [ "cwa"; "gcwa"; "egcwa"; "ddr"; "perf"; "dsm" ]

(* Four domains force the canonical forms of the same shared databases at
   once (nothing forced them before): all see the same physical forms, and
   their engines report the same keys and answers as a sequential engine
   run afterwards. *)
let concurrent_canonical_forms () =
  let rand = rand_of 2024 in
  let dbs = List.init 4 (fun i -> Gen.family_db i rand ~num_vars:5) in
  let dbs = dbs @ List.map (fun db -> Db.with_universe db 6) dbs in
  let ready = Atomic.make 0 in
  let worker () =
    Atomic.incr ready;
    while Atomic.get ready < 4 do
      Domain.cpu_relax ()
    done;
    let forms = List.map Db.canonical dbs in
    let eng = Engine.create () in
    let keys = List.map (Engine.theory_key eng) dbs in
    (forms, keys, List.map (key_answers eng) dbs)
  in
  let results =
    List.map Domain.join (List.init 4 (fun _ -> Domain.spawn worker))
  in
  let eng = Engine.create () in
  let keys = List.map (Engine.theory_key eng) dbs in
  let answers = List.map (key_answers eng) dbs in
  List.iter
    (fun (forms, keys', answers') ->
      check bool "one physical form per database" true
        (List.for_all2 ( == ) forms (List.map Db.canonical dbs));
      check (list int) "same keys" keys keys';
      check bool "same answers" true (answers = answers'))
    results

(* --- registry resolution --- *)

(* [find_in eng name] resolves every name to its own record, on any
   engine: the cached, fast-path engine answers every query exactly as the
   ablation record [find name] does. *)
let qcheck_registry_find_in =
  QCheck.Test.make ~count:(Gen.qcheck_count 30)
    ~name:"registry: find_in ≡ find on every name (record, answers)"
    (QCheck.int_bound 999999) (fun seed ->
      let rand = rand_of seed in
      let num_vars = 1 + Random.State.int rand 4 in
      let db = Gen.family_db seed rand ~num_vars in
      let f = Gen.random_formula rand num_vars ~depth:3 in
      let lits = pm_lits num_vars in
      let answers (s : Semantics.t) =
        if not (s.Semantics.applicable db) then None
        else
          Some
            ( s.Semantics.has_model db,
              s.Semantics.infer_formula db f,
              List.map (s.Semantics.infer_literal db) lits )
      in
      let eng = Engine.create () in
      List.for_all
        (fun name ->
          let cached = Option.get (Registry.find_in eng name) in
          let ablation = Option.get (Registry.find name) in
          cached.Semantics.name = name
          && ablation.Semantics.name = name
          && answers cached = answers ablation)
        Registry.names)

let registry_unknown_name () =
  let module Budget = Ddb_budget.Budget in
  let eng = Engine.create () in
  let db = Db.of_string "a | b." in
  let limits = Budget.no_limits in
  check bool "find_in" true (Option.is_none (Registry.find_in eng "nope"));
  check bool "find" true (Option.is_none (Registry.find "nope"));
  let raises what f =
    match f () with
    | _ -> failf "%s: unknown name accepted" what
    | exception Invalid_argument _ -> ()
  in
  raises "in_exn" (fun () -> ignore (Registry.in_exn eng "nope"));
  raises "infer_literal3_in" (fun () ->
      ignore
        (Registry.infer_literal3_in eng ~limits ~sem:"nope" db (Lit.Neg 0)));
  raises "infer_formula3_in" (fun () ->
      ignore
        (Registry.infer_formula3_in eng ~limits ~sem:"nope" db (Formula.Atom 0)));
  raises "has_model3_in" (fun () ->
      ignore (Registry.has_model3_in eng ~limits ~sem:"nope" db))

(* --- oracle algorithms through the engine --- *)

(* The log algorithm on a cached engine against the same algorithm on
   fresh uncached engines (same answers, same Σ₂ᵖ query count) and against
   the per-atom linear algorithm and the brute-force reference models. *)
let oracle_algorithms_engine_variant () =
  let uncached () = Engine.create ~cache:false ~fastpath:false () in
  List.iter
    (fun seed ->
      let eng = Engine.create () in
      let db = Random_db.positive ~seed ~num_vars:7 in
      let f = Random_db.formula ~seed:(seed + 100) ~num_vars:7 ~depth:3 in
      let d = Oracle_algorithms.gcwa_formula_in (uncached ()) db f in
      let e = Oracle_algorithms.gcwa_formula_in eng db f in
      let reference models = Semantics.reference_infer models db f in
      check bool "gcwa answer = reference" (reference Gcwa.reference_models)
        e.Oracle_algorithms.answer;
      check bool "gcwa answer agrees" d.Oracle_algorithms.answer
        e.Oracle_algorithms.answer;
      check int "same Σ₂ query count" d.Oracle_algorithms.sigma2_queries
        e.Oracle_algorithms.sigma2_queries;
      check bool "within the log bound" true
        (e.Oracle_algorithms.sigma2_queries
        <= Oracle_algorithms.log_bound e.Oracle_algorithms.p_size);
      let part = Random_db.random_partition ~seed ~num_vars:7 in
      let d = Oracle_algorithms.entails_log_in (uncached ()) db part f in
      let e = Oracle_algorithms.entails_log_in eng db part f in
      let l = Oracle_algorithms.entails_linear db part f in
      check bool "ccwa answer = linear algorithm" l.Oracle_algorithms.answer
        e.Oracle_algorithms.answer;
      check bool "ccwa answer = reference"
        (reference (fun db -> Ccwa.reference_models db part))
        e.Oracle_algorithms.answer;
      check bool "ccwa answer agrees" d.Oracle_algorithms.answer
        e.Oracle_algorithms.answer;
      check int "ccwa same Σ₂ query count" d.Oracle_algorithms.sigma2_queries
        e.Oracle_algorithms.sigma2_queries)
    [ 41; 42; 43 ]

let suites =
  [
    ( "engine.soundness",
      [
        test_case "cached/uncached/reference agree on all registry semantics"
          `Quick cache_soundness;
        test_case "engine primitives match fresh-solver and brute force"
          `Quick primitive_soundness;
        test_case "repeated queries are answered from the cache" `Quick
          repeat_queries_hit_cache;
        QCheck_alcotest.to_alcotest qcheck_support_set;
        QCheck_alcotest.to_alcotest qcheck_cold_literal_cost;
        QCheck_alcotest.to_alcotest qcheck_literal_is_formula;
        test_case "in_some_minimal rejects atoms outside P" `Quick
          in_some_minimal_rejects_non_p;
      ] );
    ( "engine.instrumentation",
      [
        test_case "pigeonhole counters move and are monotone" `Quick
          pigeonhole_counters_monotone;
        test_case "per-scope attribution matches global Stats" `Quick
          engine_stats_match_global;
        test_case "stats JSON shape" `Quick stats_json_sanity;
      ] );
    ( "engine.keys",
      [
        test_case "theory keys are canonical" `Quick theory_key_canonical;
        QCheck_alcotest.to_alcotest qcheck_theory_keys;
        test_case "4 domains force one shared canonical form" `Quick
          concurrent_canonical_forms;
        test_case "oracle algorithms: engine ≡ uncached ≡ linear ≡ reference"
          `Quick oracle_algorithms_engine_variant;
      ] );
    ( "engine.registry",
      [
        QCheck_alcotest.to_alcotest qcheck_registry_find_in;
        test_case "unknown names raise Invalid_argument" `Quick
          registry_unknown_name;
      ] );
  ]
