open Ddb_logic
open Ddb_db
open Ddb_core
module Engine = Ddb_engine.Engine

(* Domain-parallel batch evaluation: one oracle engine per pool worker.

   The engine is memoizing and stateful, so sharing one across domains
   would race on every table; instead worker [i] owns engine [i] and the
   pool's stable worker indices guarantee single-domain access.  Shards
   warm their caches independently (a query answered from shard 0's memo
   table is recomputed by shard 3 the first time it lands there) — that is
   the price of lock-freedom, and exactly what [Engine.merge_stats]
   quantifies: merged cache hits drop as jobs grow, merged oracle answers
   do not change.

   Tasks resolve semantics by name on their worker's engine
   ([Registry.in_exn]), exactly like the sequential path. *)

type t = { pool : Pool.t; engines : Engine.t array; pinned : bool }

let create ?jobs ?(cache = true) ?(fastpath = true) ?(pinned = false)
    ?(profile = false) () =
  let pool = Pool.create ?jobs () in
  let engines =
    Array.init (Pool.jobs pool) (fun _ ->
        Engine.create ~cache ~fastpath ~profile ())
  in
  { pool; engines; pinned }

let jobs t = Pool.jobs t.pool
let engines t = Array.to_list t.engines
let shutdown t = Pool.shutdown t.pool

let with_batch ?jobs ?cache ?fastpath ?pinned ?profile f =
  let t = create ?jobs ?cache ?fastpath ?pinned ?profile () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* Every sweep routes through this: chunked (dynamic placement, fastest)
   normally, statically pinned when the batch was created for tracing or
   profiling — item→worker placement then is a pure function of the query
   list, so per-worker trace streams and per-shard metrics are
   reproducible. *)
let map t ?cancel_on_error ?chunk_size f xs =
  if t.pinned then Parallel.map_pinned_in t.pool ?cancel_on_error f xs
  else Parallel.map_chunked_in t.pool ?cancel_on_error ?chunk_size f xs

let sem_for t ~worker name = Registry.in_exn t.engines.(worker) name

let default_sems db = function
  | Some names -> names
  | None -> Registry.applicable_names db

(* All ± literals of the universe, ¬x before x, ascending atoms — the fixed
   query order every sweep (and the sequential baseline) uses, so results
   can be compared position-wise. *)
let pm_literals db =
  List.concat_map
    (fun x -> [ Lit.Neg x; Lit.Pos x ])
    (List.init (Db.num_vars db) Fun.id)

(* --- sweeps ---

   Every cell runs under its own fresh budget token minted from [limits]
   inside the task — which is what makes per-cell wall deadlines
   meaningful (each cell's clock starts when the cell starts) and keeps
   logical caps context-free per cell; [Budget.no_limits] never trips.
   With [cancel_on_error] the tokens additionally join the group, so one
   task exception degrades the remaining cells to [Cancelled] instead of
   hanging the sweep.  For cache-disabled, pinned-or-not batches under
   purely logical caps the set of [Unknown] cells is identical at every
   job count (the parallel-determinism law in test/test_budget.ml). *)

let budgeted_cell t ?retry ?group ~worker ~limits name f =
  Engine.budgeted ?retry ?group t.engines.(worker) limits ~sem:name f

let literal_sweep3 t ?sems ?retry ?cancel_on_error ~limits db =
  let names = default_sems db sems in
  let lits = pm_literals db in
  let items = List.concat_map (fun n -> List.map (fun l -> (n, l)) lits) names in
  let answers =
    map t ?cancel_on_error
      (fun ~worker (name, l) ->
        let s = sem_for t ~worker name in
        budgeted_cell t ?retry ?group:cancel_on_error ~worker ~limits name
          (fun () -> s.Semantics.infer_literal db l))
      items
  in
  let per_sem = List.length lits in
  let rec split names answers =
    match names with
    | [] -> []
    | name :: rest ->
      let mine = List.filteri (fun i _ -> i < per_sem) answers in
      let others = List.filteri (fun i _ -> i >= per_sem) answers in
      (name, List.combine lits mine) :: split rest others
  in
  split names answers

let all_semantics3 t ?sems ?retry ?cancel_on_error ~limits db f =
  let names = default_sems db sems in
  map t ?cancel_on_error ~chunk_size:1
    (fun ~worker name ->
      let s = sem_for t ~worker name in
      ( name,
        budgeted_cell t ?retry ?group:cancel_on_error ~worker ~limits name
          (fun () -> s.Semantics.infer_formula db f) ))
    names

let exists_sweep3 t ?sems ?retry ?cancel_on_error ~limits db =
  let names = default_sems db sems in
  map t ?cancel_on_error ~chunk_size:1
    (fun ~worker name ->
      let s = sem_for t ~worker name in
      ( name,
        budgeted_cell t ?retry ?group:cancel_on_error ~worker ~limits name
          (fun () -> s.Semantics.has_model db) ))
    names

let instance_sweep3 t ?sems ?retry ?cancel_on_error ~limits dbs =
  let items =
    List.concat_map
      (fun db -> List.map (fun name -> (db, name)) (default_sems db sems))
      dbs
  in
  let swept =
    map t ?cancel_on_error ~chunk_size:1
      (fun ~worker (db, name) ->
        let s = sem_for t ~worker name in
        ( name,
          List.map
            (fun l ->
              ( l,
                budgeted_cell t ?retry ?group:cancel_on_error ~worker ~limits
                  name (fun () -> s.Semantics.infer_literal db l) ))
            (pm_literals db) ))
      items
  in
  (* regroup the flat (instance-major) result per instance *)
  let rec split dbs swept =
    match dbs with
    | [] -> []
    | db :: rest ->
      let k = List.length (default_sems db sems) in
      let mine = List.filteri (fun i _ -> i < k) swept in
      let others = List.filteri (fun i _ -> i >= k) swept in
      mine :: split rest others
  in
  split dbs swept

let totals t = Engine.merge_stats (engines t)
let metrics_json t = Engine.merged_metrics_json (engines t)
let per_scope t = Engine.merge_per_scope (engines t)
let stats_json t = Engine.merged_stats_json (engines t)
let reset t = Array.iter Engine.reset t.engines
