open Ddb_logic
open Ddb_core
open Ddb_workload
module Engine = Ddb_engine.Engine
module Stats = Ddb_sat.Stats

(* Golden oracle-call counts of the ablation path.

   [Golden_table.rows] pins, for every registry semantics and every
   decision problem on small seeded databases, the answer together with
   the SAT solve calls and Σ₂ᵖ queries it took through
   [Registry.find] — the cache-free, fast-path-free evaluation the
   engine-ablation numbers are measured on.  The Σ₂ᵖ log and linear
   algorithms of {!Oracle_algorithms} are pinned the same way on random
   ⟨P;Q;Z⟩ partitions.  A change that makes any cell dearer, cheaper or
   different shows up here as a one-line diff. *)

let families =
  [
    ("positive", fun ~seed ~num_vars -> Random_db.positive ~seed ~num_vars);
    ("integrity", fun ~seed ~num_vars -> Random_db.with_integrity ~seed ~num_vars);
    ("stratified", fun ~seed ~num_vars -> Random_db.stratified ~seed ~num_vars ());
    ("normal", fun ~seed ~num_vars -> Random_db.normal ~seed ~num_vars);
  ]

let seeds = [ 1; 2; 3 ]
let size seed = 3 + seed

(* Run [f] and return its result with the SAT / Σ₂ᵖ calls it made. *)
let counted f =
  let before = Stats.snapshot () in
  let r = f () in
  let d = Stats.delta before in
  (r, d.Stats.sat, d.Stats.sigma2)

let bit b = if b then "1" else "0"

(* Answers of a query list as a bit string, with the summed counts. *)
let sweep ask queries =
  let answers, sat, s2 =
    List.fold_left
      (fun (acc, sat, s2) q ->
        let a, s, g = counted (fun () -> ask q) in
        (bit a :: acc, sat + s, s2 + g))
      ([], 0, 0) queries
  in
  (String.concat "" (List.rev answers), sat, s2)

let row parts = String.concat " " parts

let semantics_rows () =
  List.concat_map
    (fun (fam, make) ->
      List.concat_map
        (fun seed ->
          let n = size seed in
          let db = make ~seed ~num_vars:n in
          let atoms = List.init n Fun.id in
          let formulas =
            List.map
              (fun k -> Random_db.formula ~seed:(100 + k) ~num_vars:n ~depth:3)
              [ 1; 2; 3 ]
          in
          List.concat_map
            (fun name ->
              let s = Option.get (Registry.find name) in
              if not (s.Semantics.applicable db) then []
              else
                let problems =
                  [
                    ("exists", sweep (fun () -> s.Semantics.has_model db) [ () ]);
                    ( "neg",
                      sweep
                        (fun x -> s.Semantics.infer_literal db (Lit.Neg x))
                        atoms );
                    ( "pos",
                      sweep
                        (fun x -> s.Semantics.infer_literal db (Lit.Pos x))
                        atoms );
                    ( "formula",
                      sweep (fun f -> s.Semantics.infer_formula db f) formulas );
                  ]
                in
                List.map
                  (fun (problem, (answers, sat, s2)) ->
                    row
                      [
                        name; problem; fam; string_of_int seed;
                        string_of_int n; answers; string_of_int sat;
                        string_of_int s2;
                      ])
                  problems)
            Registry.names)
        seeds)
    families

let oracle_rows () =
  List.concat_map
    (fun (fam, make) ->
      List.concat_map
        (fun seed ->
          let n = size seed in
          let db = make ~seed ~num_vars:n in
          let part = Random_db.random_partition ~seed ~num_vars:n in
          let f = Random_db.formula ~seed:(200 + seed) ~num_vars:n ~depth:3 in
          let report algo run =
            let r, sat, _ = counted run in
            row
              [
                algo; fam; string_of_int seed; string_of_int n;
                bit r.Oracle_algorithms.answer;
                string_of_int r.Oracle_algorithms.sigma2_queries;
                string_of_int r.Oracle_algorithms.p_size; string_of_int sat;
              ]
          in
          [
            report "log" (fun () ->
                Oracle_algorithms.entails_log_in
                  (Engine.create ~cache:false ~fastpath:false ())
                  db part f);
            report "linear" (fun () -> Oracle_algorithms.entails_linear db part f);
          ])
        seeds)
    families

let golden () =
  let actual = semantics_rows () @ oracle_rows () in
  Alcotest.(check int) "row count" (List.length Golden_table.rows)
    (List.length actual);
  (* Every mismatched row at once, as (expected, actual). *)
  Alcotest.(check (list (pair string string)))
    "mismatched ablation rows" []
    (List.filter
       (fun (expect, got) -> not (String.equal expect got))
       (List.combine Golden_table.rows actual))

let suites =
  [
    ( "engine.ablation",
      [ Alcotest.test_case "golden answers and oracle counts" `Quick golden ] );
  ]
