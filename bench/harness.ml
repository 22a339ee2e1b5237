open Ddb_logic
open Ddb_db
open Ddb_core
open Ddb_workload

(* The table-regeneration harness: one experiment per cell of the paper's
   Table 1 and Table 2 (semantics × {literal inference, formula inference,
   model existence} × {positive DDBs, DDBs with integrity clauses}).

   For every cell we run the decision procedure on a seeded random family at
   a ladder of universe sizes and report wall-clock time together with the
   oracle-call footprint (SAT calls = NP oracle, Σ₂ queries = Σ₂ᵖ oracle).
   The claimed complexity class from the paper is printed alongside, so the
   measured signature (polynomial growth / O(1) / oracle usage) can be read
   off against it.  Absolute times are ours; the *shape* is the paper's.

   Every cell runs the shipped decision procedure — a registry record, or
   the module's partition-parametric or P^Σ₂ᵖ[O(log n)] procedure — on a
   fresh cache-disabled, fast-path-free engine per sample, under a
   logical tick budget. *)

module Engine = Ddb_engine.Engine
module Budget = Ddb_budget.Budget

type measurement = {
  n : int;
  time_ms : float;
  sat_calls : float;
  sigma2_calls : float;
  undecided : int;  (** samples that tripped the tick budget *)
}

let repetitions = 3

(* Logical tick budget of one ladder sample: SAT conflicts, solve calls
   and engine oracle ops (see {!Budget.limits}).  Every sample of both
   tables that finishes without a budget uses under half of it (about
   12 000 at most); a runaway sample trips it within seconds and is
   reported as undecided instead of stalling the table. *)
let sample_ticks = 30_000

let sample_limits = Budget.limits ~ticks:sample_ticks ()

(* One sample on a fresh ablation engine (no memo, no fast paths): the
   generic oracle procedures on fresh solvers, so every sample's oracle
   calls are its own. *)
let time_once run input =
  let eng = Engine.create ~cache:false ~fastpath:false () in
  let before = Ddb_sat.Stats.snapshot () in
  let t0 = Unix.gettimeofday () in
  let answer = Budget.eval sample_limits (fun () -> run eng input) in
  let t1 = Unix.gettimeofday () in
  let d = Ddb_sat.Stats.delta before in
  let decided = Option.is_some (Budget.to_bool_opt answer) in
  (decided, (t1 -. t0) *. 1000., d.Ddb_sat.Stats.sat, d.Ddb_sat.Stats.sigma2)

(* Average over the decided seeded repetitions of [instance seed |> run];
   tripped samples are counted, not averaged in. *)
let measure ~n ~instance ~run =
  let samples =
    List.init repetitions (fun seed ->
        time_once run (instance ~seed ~num_vars:n))
  in
  let decided = List.filter (fun (d, _, _, _) -> d) samples in
  let avg f =
    List.fold_left (fun acc s -> acc +. f s) 0. decided
    /. float_of_int (List.length decided)
  in
  {
    n;
    time_ms = avg (fun (_, t, _, _) -> t);
    sat_calls = avg (fun (_, _, s, _) -> float_of_int s);
    sigma2_calls = avg (fun (_, _, _, q) -> float_of_int q);
    undecided = repetitions - List.length decided;
  }

type cell = {
  semantics : string;
  task : Classes.task;
  sizes : int list;
  instance : seed:int -> num_vars:int -> Db.t;
  run : Engine.t -> Db.t -> bool;
}

(* Negative-literal query on a mid-universe atom (closed-world queries ask
   for negative information; see EXPERIMENTS.md). *)
let neg_literal db = Lit.Neg (Db.num_vars db / 2)

let random_query db =
  Random_db.formula ~seed:(Db.num_vars db) ~num_vars:(Db.num_vars db) ~depth:2

(* The registry record's three decision problems on the cell's query. *)
let literal name eng db =
  (Registry.in_exn eng name).Semantics.infer_literal db (neg_literal db)

let formula name eng db =
  (Registry.in_exn eng name).Semantics.infer_formula db (random_query db)

let exists name eng db = (Registry.in_exn eng name).Semantics.has_model db

(* O(1) existence on the Table 1 fragment: every positive DDB without
   integrity clauses has a model. *)
let positive_exists _eng db = Db.is_positive_ddb db

let run_cell cell =
  List.map
    (fun n -> measure ~n ~instance:cell.instance ~run:cell.run)
    cell.sizes

let pp_measurement ppf m =
  if m.undecided = repetitions then
    Fmt.pf ppf "n=%-4d   undecided: all %d samples over the tick budget" m.n
      repetitions
  else begin
    Fmt.pf ppf "n=%-4d %8.2fms %6.0f sat %4.0f s2" m.n m.time_ms m.sat_calls
      m.sigma2_calls;
    if m.undecided > 0 then
      Fmt.pf ppf "   (%d/%d samples undecided, not averaged)" m.undecided
        repetitions
  end

let print_cell ~setting cell results =
  let claimed =
    match Classes.lookup ~semantics:cell.semantics ~setting ~task:cell.task with
    | Some entry ->
      Printf.sprintf "%s%s"
        (Classes.complexity_to_string entry.Classes.claimed)
        (match entry.Classes.provenance with
        | Classes.Stated -> ""
        | Classes.Reconstructed -> " (reconstructed)")
    | None -> "?"
  in
  Fmt.pr "  %-6s %-18s  claimed: %-40s@." cell.semantics
    (Classes.task_to_string cell.task)
    claimed;
  Fmt.pr "    @[<v>%a@]@." (Fmt.list ~sep:Fmt.cut pp_measurement) results

(* ---- the cells ---- *)

let small = [ 6; 10; 14 ]
let medium = [ 10; 20; 40; 80 ]
let large = [ 20; 40; 80; 160 ]
let tiny = [ 4; 6; 8 ]

(* Partition used for CCWA/ECWA cells: minimize the lower half, fix a
   quarter, float a quarter — a deterministic stand-in for "given
   ⟨P;Q;Z⟩". *)
let bench_partition num_vars =
  let all = List.init num_vars Fun.id in
  let p = List.filter (fun x -> x mod 2 = 0) all in
  let q = List.filter (fun x -> x mod 4 = 1) all in
  let z = List.filter (fun x -> x mod 4 = 3) all in
  Partition.of_lists num_vars ~p ~q ~z

let stratified_instance ~seed ~num_vars =
  Random_db.stratified ~seed ~num_vars ()

(* GCWA/CCWA formula inference runs the P^Σ₂ᵖ[O(log n)] algorithm, so the
   Σ₂ᵖ queries it makes are counted. *)
let gcwa_formula eng db =
  (Oracle_algorithms.gcwa_formula_in eng db (random_query db))
    .Oracle_algorithms.answer

let ccwa_literal eng db =
  Ccwa.infer_literal_in eng db
    (bench_partition (Db.num_vars db))
    (neg_literal db)

let ccwa_formula eng db =
  (Oracle_algorithms.entails_log_in eng db
     (bench_partition (Db.num_vars db))
     (random_query db))
    .Oracle_algorithms.answer

let ecwa_literal eng db =
  Ecwa.infer_literal_in eng db
    (bench_partition (Db.num_vars db))
    (neg_literal db)

let ecwa_formula eng db =
  Ecwa.infer_formula_in eng db
    (bench_partition (Db.num_vars db))
    (random_query db)

(* The cells of one semantics row: literal, formula, existence. *)
let row semantics ~instance (lit_sizes, lit) (form_sizes, form) (ex_sizes, ex)
    =
  let cell task sizes run = { semantics; task; sizes; instance; run } in
  [
    cell Classes.Literal lit_sizes lit;
    cell Classes.Formula form_sizes form;
    cell Classes.Exists ex_sizes ex;
  ]

(* A row answered by the registry record alone. *)
let registry_row name ~instance lit_sizes form_sizes ex_sizes =
  row name ~instance
    (lit_sizes, literal name)
    (form_sizes, formula name)
    (ex_sizes, exists name)

let table1_cells : cell list =
  let instance = Random_db.positive in
  List.concat
    [
      row "gcwa" ~instance
        (medium, literal "gcwa")
        (medium, gcwa_formula)
        (large, positive_exists);
      registry_row "ddr" ~instance large large large;
      registry_row "pws" ~instance large medium large;
      registry_row "egcwa" ~instance medium medium large;
      row "ccwa" ~instance
        (medium, ccwa_literal)
        (* the support computation under a nontrivial partition is the
           hardest oracle in the suite; n = 80 costs tens of seconds *)
        ([ 10; 20; 40 ], ccwa_formula)
        (large, positive_exists);
      row "ecwa" ~instance
        (medium, ecwa_literal)
        (medium, ecwa_formula)
        (large, exists "ecwa");
      (* positive databases are trivially stratified *)
      registry_row "icwa" ~instance medium medium large;
      registry_row "perf" ~instance medium medium medium;
      registry_row "dsm" ~instance medium medium large;
      (* 3-valued: small universes *)
      registry_row "pdsm" ~instance tiny tiny small;
    ]

let table2_cells : cell list =
  let ic = Random_db.with_integrity in
  let nrm = Random_db.normal in
  List.concat
    [
      row "gcwa" ~instance:ic
        (medium, literal "gcwa")
        (medium, gcwa_formula)
        (large, exists "gcwa");
      registry_row "ddr" ~instance:ic large large large;
      registry_row "pws" ~instance:ic medium medium medium;
      registry_row "egcwa" ~instance:ic medium medium large;
      row "ccwa" ~instance:ic
        (medium, ccwa_literal)
        (medium, ccwa_formula)
        (large, exists "ccwa");
      row "ecwa" ~instance:ic
        (medium, ecwa_literal)
        (medium, ecwa_formula)
        (large, exists "ecwa");
      registry_row "icwa" ~instance:stratified_instance medium medium large;
      registry_row "perf" ~instance:nrm medium medium medium;
      registry_row "dsm" ~instance:nrm medium medium medium;
      registry_row "pdsm" ~instance:nrm tiny tiny tiny;
    ]

module Trace = Ddb_obs.Trace

(* Cell → trace-file stem: "ccwa" + "literal inference" → "ccwa_literal". *)
let sanitize s =
  String.map
    (fun c ->
      if (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') then c else '_')
    (String.lowercase_ascii s)

let cell_trace_file ~prefix ~tag cell =
  Printf.sprintf "%s_%s_%s_%s.json" prefix tag cell.semantics
    (sanitize (Classes.task_to_string cell.task))

(* Cells are measured through the domain pool (one cell per task; each
   cell's seeded instances and solver state live entirely in the worker
   that runs it, and the DLS stats counters keep the per-cell oracle
   deltas exact).  Output is printed after the join, in cell order, so it
   is identical for every job count; jobs:1 is the historical sequential
   path.  Note that wall-clock times measured with jobs > 1 on a loaded
   or small machine include scheduling noise — use jobs:1 when the ladder
   shape itself is the result.

   With [trace_prefix] the cells run sequentially instead (a per-cell
   trace interleaved across workers would be misattributed), one Chrome
   trace-event JSON per ladder cell under
   [<prefix>_<table>_<semantics>_<task>.json]. *)
let print_table ?(jobs = 1) ?trace_prefix ~tag ~title ~setting cells =
  Fmt.pr "@.=== %s ===@." title;
  Fmt.pr "  (time averaged over %d seeded instances; 'sat' = NP-oracle calls, 's2' = Sigma2-oracle queries)@."
    repetitions;
  let rows =
    match trace_prefix with
    | None ->
      if jobs > 1 then
        Fmt.pr "  (cells measured across %d worker domains)@." jobs;
      Ddb_parallel.Parallel.map_chunked ~jobs ~chunk_size:1
        (fun cell -> run_cell cell)
        cells
    | Some prefix ->
      Fmt.pr "  (tracing: sequential run, one trace file per cell)@.";
      List.map
        (fun cell ->
          Trace.start ();
          let r = run_cell cell in
          Trace.stop ();
          Trace.write_file (cell_trace_file ~prefix ~tag cell);
          r)
        cells
  in
  List.iter2 (fun cell results -> print_cell ~setting cell results) cells rows;
  match trace_prefix with
  | Some prefix ->
    Fmt.pr "  wrote %d trace file(s) under %s_%s_*.json@."
      (List.length cells) prefix tag
  | None -> ()

let table1 ?jobs ?trace_prefix () =
  print_table ?jobs ?trace_prefix ~tag:"table1"
    ~title:"Table 1: positive propositional DDBs (no integrity clauses, no negation)"
    ~setting:Classes.Table1 table1_cells

let table2 ?jobs ?trace_prefix () =
  print_table ?jobs ?trace_prefix ~tag:"table2"
    ~title:"Table 2: propositional DDBs (with integrity clauses)"
    ~setting:Classes.Table2 table2_cells

(* ---- engine ablation: memoizing oracle engine vs the uncached engine ----

   Same seeded workload run twice, once through a caching engine and once
   through a cache-disabled one (fresh solvers per query, no memo: the
   ablation baseline whose counts test/golden_table.ml pins).  The workload is the closed-world query pattern the engine is
   built for: a full ± literal sweep plus a few formula queries per
   database, repeated — exactly what a query front end does.  We report the
   total SAT solve calls either way plus the cached engine's hit counts,
   and emit the engine's stats record as JSON (schema in EXPERIMENTS.md). *)

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, (Unix.gettimeofday () -. t0) *. 1000.)

(* PDSM enumerates 3^V interpretations: keep its universe tiny. *)
let engine_universe name = if name = "pdsm" then 4 else 10

let engine_workload (s : Semantics.t) db =
  let n = Db.num_vars db in
  for _rep = 1 to 2 do
    for x = 0 to n - 1 do
      ignore (s.Semantics.infer_literal db (Lit.Neg x));
      ignore (s.Semantics.infer_literal db (Lit.Pos x))
    done;
    ignore (s.Semantics.infer_formula db (random_query db));
    ignore (s.Semantics.has_model db)
  done

(* The cached closed-world workload over every semantics, on a fresh
   engine — the timing target for the observability-overhead check. *)
let full_engine_workload () =
  let eng = Engine.create ~cache:true () in
  List.iter
    (fun name ->
      let db = Random_db.positive ~seed:7 ~num_vars:(engine_universe name) in
      engine_workload (Registry.in_exn eng name) db)
    Registry.names

(* Every probe the obs layer added to the hot paths is gated on one flag,
   so with tracing off the instrumented build should time like an
   uninstrumented one.  We cannot rerun the pre-instrumentation binary
   here; what we CAN measure is (a) run-to-run noise of the disabled path
   (two identical disabled runs — their delta bounds what a ≤2% budget
   even means on this machine) and (b) the cost of actually turning
   tracing on.  Reported and exported with the section JSON. *)
let observability_overhead ?trace_prefix () =
  let () = ignore (wall full_engine_workload) (* warm-up: code + allocator *) in
  let (), disabled1 = wall full_engine_workload in
  let (), disabled2 = wall full_engine_workload in
  Trace.start ();
  let (), traced_ms = wall full_engine_workload in
  Trace.stop ();
  let traced_events = Trace.events_recorded () in
  (match trace_prefix with
  | Some p -> Trace.write_file (p ^ "_engine.json")
  | None -> ());
  let base = Float.min disabled1 disabled2 in
  let pct x = if base > 0. then (x -. base) /. base *. 100. else 0. in
  Fmt.pr "@.  observability overhead (full cached workload):@.";
  Fmt.pr "    probes disabled: %8.2fms / %8.2fms  (run-to-run delta %+.1f%%)@."
    disabled1 disabled2
    (pct (Float.max disabled1 disabled2));
  Fmt.pr "    trace enabled:   %8.2fms  (%+.1f%% vs disabled; %d events)@."
    traced_ms (pct traced_ms) traced_events;
  (match trace_prefix with
  | Some p -> Fmt.pr "    wrote %s_engine.json@." p
  | None -> ());
  Printf.sprintf
    {|{"disabled_ms":[%.3f,%.3f],"traced_ms":%.3f,"traced_events":%d}|}
    disabled1 disabled2 traced_ms traced_events

(* Prints the comparison table and returns the section as JSON (collected
   by main.exe --json). *)
let engine_comparison ?trace_prefix () =
  Fmt.pr "@.=== Engine ablation: memoizing oracle engine (cached vs uncached) ===@.";
  Fmt.pr
    "  (per semantics: 2 passes of a full ± literal sweep + formula query on \
     one seeded DB; 'sat' = total SAT solve calls)@.";
  let cached = Engine.create ~cache:true () in
  let uncached = Engine.create ~cache:false () in
  let sat_of run =
    let before = Ddb_sat.Stats.snapshot () in
    run ();
    (Ddb_sat.Stats.delta before).Ddb_sat.Stats.sat
  in
  let rows =
    List.map
      (fun name ->
        let db =
          Random_db.positive ~seed:7 ~num_vars:(engine_universe name)
        in
        let sat_uncached =
          sat_of (fun () -> engine_workload (Registry.in_exn uncached name) db)
        in
        let sat_cached =
          sat_of (fun () -> engine_workload (Registry.in_exn cached name) db)
        in
        (name, sat_uncached, sat_cached))
      Registry.names
  in
  let wins =
    List.length (List.filter (fun (_, d, c) -> c < d) rows)
  in
  List.iter
    (fun (name, sat_uncached, sat_cached) ->
      Fmt.pr "  %-6s uncached: %6d sat   cached: %6d sat   (%.1fx)@." name
        sat_uncached sat_cached
        (if sat_cached > 0 then
           float_of_int sat_uncached /. float_of_int sat_cached
         else Float.infinity))
    rows;
  let t = Engine.totals cached in
  Fmt.pr "  cached engine: %a@." Engine.pp_stats t;
  Fmt.pr "  semantics with fewer SAT calls than the uncached engine: %d/%d@."
    wins
    (List.length Registry.names);
  Fmt.pr "@.--- engine stats JSON ---@.%s@." (Engine.stats_json cached);
  let overhead_json = observability_overhead ?trace_prefix () in
  (* "sat_direct" keeps its historical key name: it is the uncached
     engine's count, comparable with earlier BENCH files. *)
  Printf.sprintf
    {|{"per_semantics":[%s],"cached_wins":%d,"observability":%s,"engine":%s}|}
    (String.concat ","
       (List.map
          (fun (name, d, c) ->
            Printf.sprintf {|{"name":%S,"sat_direct":%d,"sat_cached":%d}|}
              name d c)
          rows))
    wins overhead_json (Engine.stats_json cached)

(* ---- parallel: domain-pool batch sweeps vs the sequential path ----

   A seeded instance sweep (full ± literal workload under every applicable
   semantics except pdsm, over [instances] random DDBs) run three ways:
   plain sequential Registry loop on one engine, a jobs:1 batch (inline
   pool, the overhead baseline), and a jobs:N batch (N worker domains, one
   engine shard each).  We assert bit-identical answers across all three
   and — on cache-disabled engines, whose per-query costs are
   deterministic and context-free — that the shards' merged oracle/SAT
   counters equal the sequential uncached run's.  The section is printed,
   returned as JSON, and written to BENCH_parallel.json.

   Speedup scales with the cores actually available: on a single-core
   machine the jobs:N run measures pure pool overhead (expect ~1.0x). *)

module Batch = Ddb_parallel.Batch
module Pool = Ddb_parallel.Pool

(* Shared "meta" header for the machine-readable outputs, so every
   BENCH_*.json is self-describing.  No timestamp on purpose: outputs
   stay byte-comparable across runs with the same seed/jobs.
   [exhausted_cells] is the process-wide count of budget trips so far
   (zero unless a budgeted sweep degraded some cell). *)
let meta_json ~seed ~jobs ~sems =
  Printf.sprintf
    {|{"schema_version":3,"generator":"bench/main.exe","seed":%d,"jobs":%d,"semantics":[%s],"exhausted_cells":%d}|}
    seed jobs
    (String.concat "," (List.map (Printf.sprintf "%S") sems))
    (Ddb_budget.Budget.exhausted_total ())

let parallel_bench ?jobs ?trace_prefix () =
  let njobs =
    match jobs with
    | Some j -> max 1 j
    | None -> max 2 (Pool.recommended_jobs ())
  in
  Fmt.pr "@.=== Parallel: sharded-engine batch sweeps (sequential vs jobs:1 vs jobs:%d) ===@."
    njobs;
  let instances = 12 and num_vars = 9 in
  let dbs =
    List.init instances (fun i ->
        Random_db.with_integrity ~seed:(100 + i) ~num_vars)
  in
  let sems =
    List.filter (( <> ) "pdsm") (Registry.applicable_names (List.hd dbs))
  in
  let lits =
    List.concat_map (fun x -> [ Lit.Neg x; Lit.Pos x ]) (List.init num_vars Fun.id)
  in
  let sequential ~cache () =
    let eng = Engine.create ~cache () in
    let answers =
      List.map
        (fun db ->
          List.map
            (fun sem ->
              let s = Registry.in_exn eng sem in
              ( sem,
                List.map
                  (fun l -> (l, Budget.of_bool (s.Semantics.infer_literal db l)))
                  lits ))
            sems)
        dbs
    in
    (answers, eng)
  in
  let batched ~cache njobs =
    Batch.with_batch ~jobs:njobs ~cache (fun b ->
        let answers =
          Batch.instance_sweep3 b ~sems ~limits:Budget.no_limits dbs
        in
        (answers, Batch.totals b))
  in
  (* wall time on cached engines: the configuration a front end runs *)
  let (seq_answers, _), seq_ms = wall (sequential ~cache:true) in
  let (j1_answers, _), j1_ms = wall (fun () -> batched ~cache:true 1) in
  let (jn_answers, _), jn_ms = wall (fun () -> batched ~cache:true njobs) in
  let identical = seq_answers = j1_answers && seq_answers = jn_answers in
  (* counter equality on cache-disabled engines *)
  let (_, uncached_eng), _ = wall (sequential ~cache:false) in
  let uncached = Engine.totals uncached_eng in
  let _, merged = batched ~cache:false njobs in
  let counters_match =
    uncached.Engine.oracle_calls = merged.Engine.oracle_calls
    && uncached.Engine.sat_solve_calls = merged.Engine.sat_solve_calls
    && uncached.Engine.sigma2_queries = merged.Engine.sigma2_queries
  in
  let speedup = if jn_ms > 0. then seq_ms /. jn_ms else Float.infinity in
  Fmt.pr "  workload: %d instances x %d semantics x %d literal queries@."
    instances (List.length sems) (List.length lits);
  Fmt.pr "  sequential: %8.2fms@." seq_ms;
  Fmt.pr "  jobs:1      %8.2fms  (inline pool)@." j1_ms;
  Fmt.pr "  jobs:%-2d     %8.2fms  (%.2fx vs sequential)@." njobs jn_ms speedup;
  Fmt.pr "  identical answers: %b   uncached counters match: %b   (cores: %d)@."
    identical counters_match
    (Pool.recommended_jobs ());
  if not identical then failwith "parallel_bench: answers diverged";
  if not counters_match then
    failwith "parallel_bench: merged uncached counters diverged";
  (* optional trace of one pinned jobs:N sweep — per-worker tid lanes with
     deterministic task placement *)
  (match trace_prefix with
  | None -> ()
  | Some prefix ->
    Trace.start ();
    Batch.with_batch ~jobs:njobs ~cache:true ~pinned:true (fun b ->
        ignore (Batch.instance_sweep3 b ~sems ~limits:Budget.no_limits dbs));
    Trace.stop ();
    let file = prefix ^ "_parallel.json" in
    Trace.write_file file;
    Fmt.pr "  wrote %s (%d events, %d worker lanes)@." file
      (Trace.events_recorded ()) njobs);
  let json =
    Printf.sprintf
      {|{"meta":%s,"workload":{"instances":%d,"num_vars":%d,"semantics":[%s],"literal_queries":%d},"available_cores":%d,"runs":[{"mode":"sequential","wall_ms":%.3f},{"mode":"batch","jobs":1,"wall_ms":%.3f},{"mode":"batch","jobs":%d,"wall_ms":%.3f}],"speedup_vs_sequential":%.3f,"identical_results":%b,"direct_counters_match":%b,"merged_direct":{"oracle_calls":%d,"sat_solve_calls":%d,"sigma2_queries":%d}}|}
      (meta_json ~seed:100 ~jobs:njobs ~sems)
      instances num_vars
      (String.concat "," (List.map (Printf.sprintf "%S") sems))
      (List.length lits)
      (Pool.recommended_jobs ())
      seq_ms j1_ms njobs jn_ms speedup identical counters_match
      merged.Engine.oracle_calls merged.Engine.sat_solve_calls
      merged.Engine.sigma2_queries
  in
  let oc = open_out "BENCH_parallel.json" in
  output_string oc json;
  output_char oc '\n';
  close_out oc;
  Fmt.pr "  wrote BENCH_parallel.json@.";
  json

(* ---- fastpath: tractable-fragment dispatch vs the generic oracle ----

   The full ± literal sweep plus an existence check, on seeded instances of
   the two tractable workload families the dispatcher targets (definite-Horn
   databases for the least-model cells, stratified normal databases for the
   perfect-model cells), run twice per instance: once on a fast-path engine
   and once on an ablation engine created with ~fastpath:false (the exact
   pre-dispatch behaviour).  Answers are asserted identical; the JSON
   records per-family wall times, the speedup, and the engines' dispatch
   counters (hits must be positive on these families, by construction). *)

let fastpath_bench () =
  Fmt.pr "@.=== Fast paths: fragment dispatch vs generic oracle ===@.";
  let instances = 6 and num_vars = 20 in
  let families =
    [
      ( "definite",
        List.init instances (fun i ->
            Random_db.definite ~seed:(200 + i) ~num_vars ()) );
      ( "stratified_normal",
        List.init instances (fun i ->
            Random_db.stratified ~head_max:1 ~seed:(300 + i) ~num_vars ()) );
    ]
  in
  let sweep eng dbs =
    List.map
      (fun db ->
        let sems =
          List.filter (( <> ) "pdsm") (Registry.applicable_names db)
        in
        List.map
          (fun sem ->
            let lits =
              List.concat_map
                (fun x -> [ Lit.Neg x; Lit.Pos x ])
                (List.init (Db.num_vars db) Fun.id)
            in
            let s = Registry.in_exn eng sem in
            ( sem,
              s.Semantics.has_model db,
              List.map (fun l -> s.Semantics.infer_literal db l) lits ))
          sems)
      dbs
  in
  let rows =
    List.map
      (fun (name, dbs) ->
        let fast_eng = Engine.create () in
        let generic_eng = Engine.create ~fastpath:false () in
        let fast_answers, fast_ms = wall (fun () -> sweep fast_eng dbs) in
        let generic_answers, generic_ms =
          wall (fun () -> sweep generic_eng dbs)
        in
        if fast_answers <> generic_answers then
          failwith ("fastpath_bench: answers diverged on " ^ name);
        let t = Engine.totals fast_eng in
        let speedup =
          if fast_ms > 0. then generic_ms /. fast_ms else Float.infinity
        in
        Fmt.pr
          "  %-18s fast: %8.2fms   generic: %8.2fms   (%.1fx)   hits: %d  \
           misses: %d@."
          name fast_ms generic_ms speedup t.Engine.fastpath_hits
          t.Engine.fastpath_misses;
        if t.Engine.fastpath_hits = 0 then
          failwith ("fastpath_bench: no fast-path hits on " ^ name);
        (name, fast_ms, generic_ms, speedup, t))
      families
  in
  let json =
    Printf.sprintf {|{"meta":%s,"workload":{"instances":%d,"num_vars":%d},"families":[%s]}|}
      (meta_json ~seed:200 ~jobs:1 ~sems:Registry.names)
      instances num_vars
      (String.concat ","
         (List.map
            (fun (name, fast_ms, generic_ms, speedup, t) ->
              Printf.sprintf
                {|{"name":%S,"wall_ms_fastpath":%.3f,"wall_ms_generic":%.3f,"speedup":%.3f,"fastpath_hits":%d,"fastpath_misses":%d,"classifications":%d,"identical_answers":true}|}
                name fast_ms generic_ms speedup t.Engine.fastpath_hits
                t.Engine.fastpath_misses t.Engine.classifications)
            rows))
  in
  let oc = open_out "BENCH_fastpath.json" in
  output_string oc json;
  output_char oc '\n';
  close_out oc;
  Fmt.pr "  wrote BENCH_fastpath.json@.";
  json
