open Ddb_logic
open Ddb_core
open Ddb_workload

(* Ablation benches for the design choices called out in DESIGN.md:

   ABL-engines — reference enumeration vs oracle-guided engines.  The
   reference engine walks all 2^n interpretations; the oracle engine's work
   is driven by SAT calls.  The crossover shows why the guess-and-check
   upper-bound algorithms matter in practice, not just asymptotically.

   ABL-sat — CDCL vs naive DPLL on pigeonhole instances (hard for
   tree-resolution, which is exactly what plain DPLL is).

   ABL-oracle — covered by Oracle_bench (log vs linear Σ₂ usage). *)

let time_ms f =
  let t0 = Unix.gettimeofday () in
  let _ = f () in
  (Unix.gettimeofday () -. t0) *. 1000.

(* Each ladder rung is independent (fresh seeded instance, fresh solver),
   so the rungs fan out over the domain pool; rows are printed after the
   join, in ladder order, identically for every job count.  jobs:1 (the
   default) is the historical sequential path and the one to use when the
   timing shape is the result. *)
let ladder ~jobs sizes row print_row =
  List.iter print_row
    (Ddb_parallel.Parallel.map_chunked ~jobs ~chunk_size:1 row sizes)

let engines ~jobs () =
  Fmt.pr "@.=== Ablation: reference enumeration vs oracle engine (EGCWA formula inference) ===@.";
  Fmt.pr "  %-6s %-14s %-14s@." "n" "reference ms" "oracle ms";
  ladder ~jobs [ 8; 12; 16; 20; 30; 40 ]
    (fun n ->
      let db = Random_db.positive ~seed:(7 * n) ~num_vars:n in
      let f = Random_db.formula ~seed:n ~num_vars:n ~depth:2 in
      let reference_ms =
        if n > 18 then Float.nan
        else
          time_ms (fun () ->
              List.for_all
                (fun m -> Formula.eval m f)
                (Egcwa.reference_models db))
      in
      let oracle_ms =
        time_ms (fun () ->
            Egcwa.infer_formula_in
              (Ddb_engine.Engine.create ~cache:false ~fastpath:false ())
              db f)
      in
      (n, reference_ms, oracle_ms))
    (fun (n, reference_ms, oracle_ms) ->
      Fmt.pr "  %-6d %-14.2f %-14.2f@." n reference_ms oracle_ms)

let sat_php ~jobs () =
  Fmt.pr "@.=== Ablation: CDCL vs naive DPLL (pigeonhole PHP(n+1,n), unsat) ===@.";
  Fmt.pr "  (resolution lower bound: both engines are exponential here)@.";
  Fmt.pr "  %-6s %-12s %-12s@." "n" "cdcl ms" "dpll ms";
  ladder ~jobs [ 4; 5; 6 ]
    (fun n ->
      let num_vars, clauses = Pigeonhole.unsat_instance n in
      let cdcl_ms =
        time_ms (fun () ->
            Ddb_sat.Solver.solve (Ddb_sat.Solver.of_clauses ~num_vars clauses))
      in
      let dpll_ms = time_ms (fun () -> Ddb_sat.Dpll.is_sat ~num_vars clauses) in
      (n, cdcl_ms, dpll_ms))
    (fun (n, cdcl_ms, dpll_ms) ->
      Fmt.pr "  %-6d %-12.2f %-12.2f@." n cdcl_ms dpll_ms)

(* Random 3-CNF near the phase transition (ratio 4.2): structured conflicts
   are exactly where learning pays. *)
let sat_random ~jobs () =
  Fmt.pr "@.=== Ablation: CDCL vs naive DPLL (random 3-CNF, ratio 4.2) ===@.";
  Fmt.pr "  %-6s %-12s %-12s@." "n" "cdcl ms" "dpll ms";
  ladder ~jobs [ 20; 40; 60; 90; 120 ]
    (fun n ->
      let rng = Rng.create (97 * n) in
      let clauses =
        List.init (int_of_float (4.2 *. float_of_int n)) (fun _ ->
            List.init 3 (fun _ ->
                let v = Rng.int rng n in
                if Rng.bool rng then Lit.Pos v else Lit.Neg v))
      in
      let cdcl_ms =
        time_ms (fun () ->
            Ddb_sat.Solver.solve (Ddb_sat.Solver.of_clauses ~num_vars:n clauses))
      in
      let dpll_ms =
        if n > 60 then Float.nan
        else time_ms (fun () -> Ddb_sat.Dpll.is_sat ~num_vars:n clauses)
      in
      (n, cdcl_ms, dpll_ms))
    (fun (n, cdcl_ms, dpll_ms) ->
      Fmt.pr "  %-6d %-12.2f %-12.2f@." n cdcl_ms dpll_ms)

let run ?(jobs = 1) () =
  engines ~jobs ();
  sat_php ~jobs ();
  sat_random ~jobs ()
