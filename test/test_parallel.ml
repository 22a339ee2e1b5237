open Ddb_logic
open Ddb_db
open Ddb_core
open Ddb_workload
open Ddb_parallel
open Alcotest
module Engine = Ddb_engine.Engine
module Budget = Ddb_budget.Budget

(* Tests for the domain-parallel batch layer: pool mechanics (order
   stability, worker indices, exception-safe join), batch determinism
   (jobs:1 ≡ jobs:4 ≡ the sequential registry path on random DBs),
   cross-shard stats merging against the sequential counters, and the
   sharded reset lifecycle. *)

(* --- pool and map_chunked mechanics --- *)

let map_order_stable () =
  let xs = List.init 100 Fun.id in
  let expect = List.map (fun x -> x * x) xs in
  List.iter
    (fun jobs ->
      List.iter
        (fun chunk_size ->
          check (list int)
            (Printf.sprintf "jobs:%d chunk:%d" jobs chunk_size)
            expect
            (Pool.with_pool ~jobs (fun pool ->
                 Parallel.map_chunked_in pool ~chunk_size
                   (fun ~worker:_ x -> x * x)
                   xs)))
        [ 1; 3; 100; 1000 ])
    [ 1; 2; 4 ]

let map_empty_and_singleton () =
  check (list int) "empty" [] (Parallel.map_chunked ~jobs:4 (fun x -> x) []);
  check (list int) "singleton" [ 7 ]
    (Parallel.map_chunked ~jobs:4 (fun x -> x) [ 7 ])

let worker_indices_in_range () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let workers =
        Parallel.map_chunked_in pool ~chunk_size:1
          (fun ~worker _ -> worker)
          (List.init 64 Fun.id)
      in
      check bool "all in [0,4)" true
        (List.for_all (fun w -> w >= 0 && w < 4) workers))

exception Boom of int

let exceptions_propagate () =
  List.iter
    (fun jobs ->
      let ran = Array.make 16 false in
      match
        Pool.with_pool ~jobs (fun pool ->
            Parallel.map_chunked_in pool ~chunk_size:1
              (fun ~worker:_ x ->
                ran.(x) <- true;
                if x mod 5 = 3 then raise (Boom x);
                x)
              (List.init 16 Fun.id))
      with
      | _ -> failf "jobs:%d expected Boom" jobs
      | exception Boom x ->
        check int (Printf.sprintf "jobs:%d first failure wins" jobs) 3 x;
        (* the join is exception-safe: every task still ran *)
        check bool "all tasks ran" true (Array.for_all Fun.id ran))
    [ 1; 4 ]

let pool_reusable_across_runs () =
  Pool.with_pool ~jobs:2 (fun pool ->
      for i = 1 to 3 do
        let got =
          Parallel.map_chunked_in pool (fun ~worker:_ x -> x + i)
            (List.init 10 Fun.id)
        in
        check (list int) "run" (List.init 10 (fun x -> x + i)) got
      done)

(* --- batch determinism (the qcheck property of the issue) --- *)

(* Sequential baseline: the same query multiset in the same order through
   the registry records of a single engine. *)
let sequential_sweep ~cache db =
  let eng = Engine.create ~cache () in
  let lits =
    List.concat_map
      (fun x -> [ Lit.Neg x; Lit.Pos x ])
      (List.init (Db.num_vars db) Fun.id)
  in
  let result =
    List.map
      (fun sem ->
        let s = Registry.in_exn eng sem in
        ( sem,
          List.map
            (fun l -> (l, Budget.of_bool (s.Semantics.infer_literal db l)))
            lits ))
      (Registry.applicable_names db)
  in
  (result, eng)

(* The unbudgeted sweeps: every cell under [Budget.no_limits]. *)
let literal_sweep b db = Batch.literal_sweep3 b ~limits:Budget.no_limits db

let lit = testable (fun fmt l -> Lit.pp fmt l) Lit.equal
let answer = testable Budget.pp_answer Budget.answer_equal
let sweep_testable = list (pair string (list (pair lit answer)))

let qcheck_jobs_invariant =
  QCheck.Test.make ~count:(Gen.qcheck_count 15)
    ~name:"batch: jobs:1 ≡ jobs:4 ≡ sequential registry records"
    (QCheck.int_bound 999999)
    (fun seed ->
      let rand = Random.State.make [| seed |] in
      let num_vars = 1 + Random.State.int rand 5 in
      let db =
        Random_db.generate ~seed:(Random.State.int rand 10000) ~num_vars ()
      in
      (* pdsm's 3^n enumeration stays cheap at these sizes, so keep it in *)
      let expect, _ = sequential_sweep ~cache:true db in
      let j1 = Batch.with_batch ~jobs:1 (fun b -> literal_sweep b db) in
      let j4 = Batch.with_batch ~jobs:4 (fun b -> literal_sweep b db) in
      expect = j1 && expect = j4)

let batch_matches_sequential_unit () =
  let db = Random_db.with_integrity ~seed:42 ~num_vars:6 in
  let expect, _ = sequential_sweep ~cache:true db in
  List.iter
    (fun jobs ->
      Batch.with_batch ~jobs (fun b ->
          check sweep_testable
            (Printf.sprintf "jobs:%d literal sweep" jobs)
            expect (literal_sweep b db);
          (* repeat on the warm shards: still identical *)
          check sweep_testable
            (Printf.sprintf "jobs:%d warm repeat" jobs)
            expect (literal_sweep b db)))
    [ 1; 2; 4 ]

let all_semantics_and_exists_agree () =
  let db = Random_db.positive ~seed:5 ~num_vars:6 in
  let f = Random_db.formula ~seed:6 ~num_vars:6 ~depth:2 in
  let eng = Engine.create () in
  let expect ask =
    List.map
      (fun sem -> (sem, Budget.of_bool (ask (Registry.in_exn eng sem))))
      (Registry.applicable_names db)
  in
  let expect_f = expect (fun s -> s.Semantics.infer_formula db f) in
  let expect_e = expect (fun s -> s.Semantics.has_model db) in
  let limits = Budget.no_limits in
  Batch.with_batch ~jobs:3 (fun b ->
      check (list (pair string answer)) "all_semantics" expect_f
        (Batch.all_semantics3 b ~limits db f);
      check (list (pair string answer)) "exists_sweep" expect_e
        (Batch.exists_sweep3 b ~limits db))

let instance_sweep_agrees () =
  let dbs =
    List.map (fun seed -> Random_db.positive ~seed ~num_vars:5) [ 1; 2; 3; 4 ]
  in
  let expect = List.map (fun db -> fst (sequential_sweep ~cache:true db)) dbs in
  let got =
    Batch.with_batch ~jobs:4 (fun b ->
        Batch.instance_sweep3 b ~limits:Budget.no_limits dbs)
  in
  check (list sweep_testable) "instance sweep" expect got

(* --- merged counters vs the sequential run ---

   On cache-disabled shards every query's oracle cost is deterministic and
   context-free (fresh solvers per query), so the field-wise sum over the
   shards must equal the sequential uncached run exactly.  Cached shards
   lose cross-task hits to sharding, so their merged solve count only has
   to stay at or below the uncached run's. *)

let merged_counters_equal_sequential () =
  let db = Random_db.with_integrity ~seed:17 ~num_vars:6 in
  let _, seq_eng = sequential_sweep ~cache:false db in
  let seq = Engine.totals seq_eng in
  Batch.with_batch ~jobs:3 ~cache:false (fun b ->
      let swept = literal_sweep b db in
      check bool "direct sweep non-trivial" true (swept <> []);
      let merged = Batch.totals b in
      check int "oracle calls" seq.Engine.oracle_calls merged.Engine.oracle_calls;
      check int "sat solve calls" seq.Engine.sat_solve_calls
        merged.Engine.sat_solve_calls;
      check int "sigma2 queries" seq.Engine.sigma2_queries
        merged.Engine.sigma2_queries;
      check int "conflicts" seq.Engine.sat_conflicts merged.Engine.sat_conflicts;
      check int "decisions" seq.Engine.sat_decisions merged.Engine.sat_decisions;
      check int "propagations" seq.Engine.sat_propagations
        merged.Engine.sat_propagations;
      check int "no cache hits on direct shards" 0 merged.Engine.cache_hits;
      (* per-semantics buckets merge to the sequential buckets too *)
      let seq_scopes = Engine.per_scope seq_eng in
      let merged_scopes = Batch.per_scope b in
      check (list string) "scope names"
        (List.map (fun s -> s.Engine.scope) seq_scopes)
        (List.map (fun s -> s.Engine.scope) merged_scopes);
      List.iter2
        (fun (a : Engine.stats) (m : Engine.stats) ->
          check int (a.Engine.scope ^ " sat") a.Engine.sat_solve_calls
            m.Engine.sat_solve_calls;
          check int (a.Engine.scope ^ " oracle") a.Engine.oracle_calls
            m.Engine.oracle_calls)
        seq_scopes merged_scopes)

let cached_shards_do_not_exceed_direct () =
  let db = Random_db.with_integrity ~seed:23 ~num_vars:6 in
  let _, uncached_eng = sequential_sweep ~cache:false db in
  let uncached_sat = (Engine.totals uncached_eng).Engine.sat_solve_calls in
  Batch.with_batch ~jobs:4 ~cache:true (fun b ->
      ignore (literal_sweep b db);
      let merged = Batch.totals b in
      check bool "cached shards recorded hits" true (merged.Engine.cache_hits > 0);
      check bool "merged cached sat <= sequential direct sat" true
        (merged.Engine.sat_solve_calls <= uncached_sat))

(* --- the sharded reset lifecycle (merged-stats run, then reset) --- *)

let zeroed (s : Engine.stats) =
  s.Engine.oracle_calls = 0 && s.Engine.cache_hits = 0
  && s.Engine.cache_misses = 0 && s.Engine.sat_solve_calls = 0
  && s.Engine.sigma2_queries = 0 && s.Engine.sat_conflicts = 0
  && s.Engine.sat_decisions = 0 && s.Engine.sat_propagations = 0
  && s.Engine.wall_ms = 0.

let reset_after_merge () =
  let db = Random_db.with_integrity ~seed:29 ~num_vars:6 in
  let expect, _ = sequential_sweep ~cache:true db in
  Batch.with_batch ~jobs:3 (fun b ->
      let first = literal_sweep b db in
      check sweep_testable "pre-reset sweep" expect first;
      check bool "work was recorded" true
        ((Batch.totals b).Engine.oracle_calls > 0);
      ignore (Batch.stats_json b);
      Batch.reset b;
      (* every shard: zero counters, no scopes, no hash-consed theories *)
      List.iter
        (fun eng ->
          check bool "shard totals zero" true (zeroed (Engine.totals eng));
          check (list string) "shard scopes empty" []
            (List.map (fun s -> s.Engine.scope) (Engine.per_scope eng)))
        (Batch.engines b);
      check bool "merged totals zero" true (zeroed (Batch.totals b));
      let json = Batch.stats_json b in
      let has needle =
        let nl = String.length needle and jl = String.length json in
        let rec go i =
          i + nl <= jl && (String.sub json i nl = needle || go (i + 1))
        in
        go 0
      in
      check bool "theories reset to 0" true (has "\"theories\":0");
      (* fresh solvers on every shard: the engines answer correctly again *)
      check sweep_testable "post-reset sweep" expect (literal_sweep b db);
      check bool "fresh work recorded" true
        ((Batch.totals b).Engine.oracle_calls > 0))

(* --- merged stats JSON shape --- *)

let merged_json_shape () =
  let db = Random_db.positive ~seed:3 ~num_vars:5 in
  Batch.with_batch ~jobs:2 (fun b ->
      ignore (literal_sweep b db);
      let json = Batch.stats_json b in
      let has needle =
        let nl = String.length needle and jl = String.length json in
        let rec go i =
          i + nl <= jl && (String.sub json i nl = needle || go (i + 1))
        in
        go 0
      in
      check bool "object" true (String.length json > 0 && json.[0] = '{');
      check bool "cache flag" true (has "\"cache\":true");
      check bool "theories field" true (has "\"theories\":");
      check bool "total bucket" true (has "\"total\":");
      check bool "per-semantics buckets" true (has "\"gcwa\""))

let suites =
  [
    ( "parallel.pool",
      [
        test_case "map_chunked is order-stable for every jobs/chunk" `Quick
          map_order_stable;
        test_case "empty and singleton inputs" `Quick map_empty_and_singleton;
        test_case "worker indices stay in range" `Quick worker_indices_in_range;
        test_case "exceptions propagate after an exception-safe join" `Quick
          exceptions_propagate;
        test_case "a pool is reusable across runs" `Quick
          pool_reusable_across_runs;
      ] );
    ( "parallel.batch",
      [
        QCheck_alcotest.to_alcotest qcheck_jobs_invariant;
        test_case "literal sweep = sequential for jobs 1/2/4 (cold and warm)"
          `Quick batch_matches_sequential_unit;
        test_case "all_semantics and exists_sweep = sequential" `Quick
          all_semantics_and_exists_agree;
        test_case "instance sweep = per-instance sequential sweeps" `Quick
          instance_sweep_agrees;
      ] );
    ( "parallel.stats",
      [
        test_case "merged direct-shard counters = sequential direct run" `Quick
          merged_counters_equal_sequential;
        test_case "merged cached solves never exceed the uncached run" `Quick
          cached_shards_do_not_exceed_direct;
        test_case "reset after a merged-stats run zeroes every shard" `Quick
          reset_after_merge;
        test_case "merged stats JSON keeps the schema" `Quick merged_json_shape;
      ] );
  ]
