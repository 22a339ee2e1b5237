open Ddb_logic
open Ddb_db
open Ddb_workload

(* Workload inputs.  Everything here is a pure function of the workload
   seed, so one seed always yields the same requests. *)

type query = Lit of Lit.t | Formula of Formula.t | Exists

(* One public three-valued query: [sem] ⊨ query on [db]. *)
type query_req = { label : string; sem : string; db : Db.t; query : query }

(* ---- planted-model generators ---------------------------------------- *)

(* Draw a hidden model M and keep only the clauses M satisfies, so the
   database is consistent by construction.  The clause stream is the
   family's own (same seed), so the ladder instances keep their shape; M
   comes from a separate stream. *)
let plant ~seed db =
  let rng = Rng.create ((seed * 1_000_003) + 0x9e37) in
  let m = Interp.of_pred (Db.num_vars db) (fun _ -> Rng.bool rng) in
  Db.make ~vocab:(Db.vocab db) (List.filter (Clause.satisfied_by m) (Db.clauses db))

let planted_integrity ~seed ~num_vars =
  plant ~seed (Random_db.with_integrity ~seed ~num_vars)

let planted_normal ~seed ~num_vars =
  plant ~seed (Random_db.normal ~seed ~num_vars)

let planted_definite ~seed ~num_vars =
  plant ~seed (Random_db.definite ~seed ~num_vars ())

let stratified ~seed ~num_vars = Random_db.stratified ~seed ~num_vars ()

let stratified_normal ~seed ~num_vars =
  Random_db.stratified ~head_max:1 ~seed ~num_vars ()

(* Classical consistency by one direct SAT call (the check behind
   [workload.consistent_share]; not part of any timed section). *)
let consistent db =
  Ddb_sat.Solver.solve
    (Ddb_sat.Solver.of_clauses ~num_vars:(Db.num_vars db) (Db.to_cnf db))
  = Ddb_sat.Solver.Sat

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* ---- table_cells: the ladders of bench/harness.ml -------------------- *)

(* The ladder sizes and seeds of bench/harness.ml.  The Table 2 integrity
   and normal settings use the planted versions of the harness families;
   CCWA/ECWA/ICWA take the registry's total partition, since every request
   goes through the public API. *)
let small = [ 6; 10; 14 ]
let medium = [ 10; 20; 40; 80 ]
let large = [ 20; 40; 80; 160 ]
let tiny = [ 4; 6; 8 ]
let ladder_seeds = [ 0; 1; 2 ]

type task = Literal | Formula_task | Exists_task

let task_name = function
  | Literal -> "literal"
  | Formula_task -> "formula"
  | Exists_task -> "exists"

(* (semantics, task, sizes) rows of harness.ml's table1_cells. *)
let table1_rows =
  [
    ("gcwa", Literal, medium); ("gcwa", Formula_task, medium); ("gcwa", Exists_task, large);
    ("ddr", Literal, large); ("ddr", Formula_task, large); ("ddr", Exists_task, large);
    ("pws", Literal, large); ("pws", Formula_task, medium); ("pws", Exists_task, large);
    ("egcwa", Literal, medium); ("egcwa", Formula_task, medium); ("egcwa", Exists_task, large);
    ("ccwa", Literal, medium); ("ccwa", Formula_task, [ 10; 20; 40 ]); ("ccwa", Exists_task, large);
    ("ecwa", Literal, medium); ("ecwa", Formula_task, medium); ("ecwa", Exists_task, large);
    ("icwa", Literal, medium); ("icwa", Formula_task, medium); ("icwa", Exists_task, large);
    ("perf", Literal, medium); ("perf", Formula_task, medium); ("perf", Exists_task, medium);
    ("dsm", Literal, medium); ("dsm", Formula_task, medium); ("dsm", Exists_task, large);
    ("pdsm", Literal, tiny); ("pdsm", Formula_task, tiny); ("pdsm", Exists_task, small);
  ]

(* harness.ml's table2_cells, with its instance family per row. *)
let table2_rows =
  let ic = ("integrity", planted_integrity) in
  let nrm = ("normal", planted_normal) in
  let strat = ("stratified", stratified) in
  [
    ("gcwa", Literal, medium, ic); ("gcwa", Formula_task, medium, ic); ("gcwa", Exists_task, large, ic);
    ("ddr", Literal, large, ic); ("ddr", Formula_task, large, ic); ("ddr", Exists_task, large, ic);
    ("pws", Literal, medium, ic); ("pws", Formula_task, medium, ic); ("pws", Exists_task, medium, ic);
    ("egcwa", Literal, medium, ic); ("egcwa", Formula_task, medium, ic); ("egcwa", Exists_task, large, ic);
    ("ccwa", Literal, medium, ic); ("ccwa", Formula_task, medium, ic); ("ccwa", Exists_task, large, ic);
    ("ecwa", Literal, medium, ic); ("ecwa", Formula_task, medium, ic); ("ecwa", Exists_task, large, ic);
    ("icwa", Literal, medium, strat); ("icwa", Formula_task, medium, strat); ("icwa", Exists_task, large, strat);
    ("perf", Literal, medium, nrm); ("perf", Formula_task, medium, nrm); ("perf", Exists_task, medium, nrm);
    ("dsm", Literal, medium, nrm); ("dsm", Formula_task, medium, nrm); ("dsm", Exists_task, medium, nrm);
    ("pdsm", Literal, tiny, nrm); ("pdsm", Formula_task, tiny, nrm); ("pdsm", Exists_task, tiny, nrm);
  ]

(* harness.ml's queries: a negative literal on a mid-universe atom and a
   depth-2 random formula seeded by the universe size. *)
let ladder_query task db =
  let n = Db.num_vars db in
  match task with
  | Literal -> Lit (Lit.Neg (n / 2))
  | Formula_task -> Formula (Random_db.formula ~seed:n ~num_vars:n ~depth:2)
  | Exists_task -> Exists

(* The ladder instances are fixed (seeds 0..2) so the cells are the
   paper's evaluation exactly; the workload seed only permutes the order
   in which the closed loop issues them (see bench.ml). *)
let table_cells () =
  let cache = Hashtbl.create 64 in
  let instance family gen ~seed ~num_vars =
    match Hashtbl.find_opt cache (family, seed, num_vars) with
    | Some db -> db
    | None ->
      let db = gen ~seed ~num_vars in
      Hashtbl.add cache (family, seed, num_vars) db;
      db
  in
  let rows =
    List.map (fun (s, t, sz) -> ("t1", s, t, sz, ("positive", Random_db.positive))) table1_rows
    @ List.map (fun (s, t, sz, fam) -> ("t2", s, t, sz, fam)) table2_rows
  in
  let reqs =
    List.concat_map
      (fun (table, sem, task, sizes, (family, gen)) ->
        List.concat_map
          (fun n ->
            List.map
              (fun s ->
                let db = instance family gen ~seed:s ~num_vars:n in
                {
                  label = Printf.sprintf "%s/%s/%s/%s/n%d/s%d" table family sem (task_name task) n s;
                  sem;
                  db;
                  query = ladder_query task db;
                })
              ladder_seeds)
          sizes)
      rows
  in
  (Array.of_list reqs, Hashtbl.fold (fun _ db acc -> db :: acc) cache [])

(* ---- frontend_warm: the ddbtool sweep pattern ----------------------- *)

let formulas_per_db = 4

(* A fixed set of consistent databases: positive, planted-integrity and
   planted-normal at n = 30, plus definite and stratified-normal ones at
   n = 60 (the fast-path fragments), each with [formulas_per_db] fixed
   depth-3 query formulas.  The set is fixed, like the ladder instances:
   which PWS requests exhaust the budget depends strongly on the database
   (from a dozen to hundreds of the ~900 PWS requests of a pass over two
   databases of each family), so a seed-drawn set would make every figure
   swing with the seed.  The workload seed draws the order in which a pass
   visits the databases.  Each entry is (name, database, formulas). *)
let frontend_dbs ~seed =
  let dbs =
    [|
      ("positive", Random_db.positive ~seed:0 ~num_vars:30);
      ("integrity", planted_integrity ~seed:1 ~num_vars:30);
      ("normal", planted_normal ~seed:2 ~num_vars:30);
      ("definite", planted_definite ~seed:3 ~num_vars:60);
      ("stratified", stratified_normal ~seed:4 ~num_vars:60);
    |]
  in
  let entries =
    Array.mapi
      (fun i (family, db) ->
        let n = Db.num_vars db in
        ( Printf.sprintf "%s#%d" family i,
          db,
          List.init formulas_per_db (fun k ->
              Random_db.formula ~seed:((i * 31) + k) ~num_vars:n ~depth:3) ))
      dbs
  in
  shuffle (Rng.create seed) entries;
  Array.to_list entries

(* Every applicable semantics except PDSM, whose 3^n reference enumeration
   makes it a tiny-universe semantics. *)
let sweep_sems db =
  List.filter (fun s -> s <> "pdsm") (Ddb_core.Registry.applicable_names db)

(* One pass of [ddbtool sweep] per database: for each semantics the ±
   literal sweep (¬x then x, as Batch.literal_sweep orders it), the
   formulas, then existence. *)
let frontend_requests dbs =
  List.concat_map
    (fun (name, db, fs) ->
      List.concat_map
        (fun sem ->
          let lbl what = Printf.sprintf "%s/%s/%s" name sem what in
          let lits =
            List.concat (List.init (Db.num_vars db) (fun x -> [ Lit.Neg x; Lit.Pos x ]))
          in
          List.map (fun l -> { label = lbl (Lit.to_string l); sem; db; query = Lit l }) lits
          @ List.mapi
              (fun k f -> { label = lbl (Printf.sprintf "f%d" k); sem; db; query = Formula f })
              fs
          @ [ { label = lbl "exists"; sem; db; query = Exists } ])
        (sweep_sems db))
    dbs

(* ---- table_cells: reduction images of random ∃∀-QBFs ---------------- *)

(* A fixed set, like the ladder instances: a few hundred random QBFs are
   too few to average out their hardness, and seed-drawn sets of 200 moved
   the round time by about 30% from seed to seed.  The workload seed
   shuffles the requests.  100 QBFs keep a round short, so a run holds
   many rounds to take each request's best latency from. *)
let qbf_count = 100

let qbfs =
  List.init qbf_count (fun i ->
      Qbf_family.random_ef ~terms_per_var:2 ~term_width:4 ~seed:i ~xs:6 ~ys:12 ())
