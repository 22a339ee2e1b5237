open Ddb_logic
open Ddb_db
open Inputs
module Engine = Ddb_engine.Engine
module Budget = Ddb_budget.Budget
module Registry = Ddb_core.Registry
module Trace = Ddb_obs.Trace
module Stats = Ddb_sat.Stats

(* The checked benchmark of the shipped engine path.  One closed-loop
   client issues requests through the public three-valued API under a
   fixed logical budget; see README.md for workloads and metrics. *)

(* Per-request budget: 2000 logical ticks (conflicts, solve calls, CEGAR
   rounds and engine oracle ops).  Logical caps make the set of undecided
   requests a pure function of the input. *)
let limits = Budget.limits ~ticks:2000 ()

(* Reference answers that the ablation engine cannot decide within
   [limits] get one more attempt with this many times the ticks. *)
let reference_factor = 16

(* ---- requests and workloads ------------------------------------------- *)

(* One public call.  [span] is the benchmark's own trace span around it. *)
type 'ctx req = { label : string; span : Trace.name; run : 'ctx -> Budget.answer }

type 'ctx spec = {
  passes : int;  (** passes over [reqs] per round, on one context *)
  create : profile:bool -> 'ctx;  (** engine creation *)
  engines : 'ctx -> Engine.t list;
  reqs : 'ctx req array;
}

type workload = W : 'ctx spec -> workload

(* What a workload hands the measurement loop besides its spec. *)
type built = {
  spec : workload;
  dbs : Db.t list;  (** distinct databases (consistency check, kernels) *)
  qbf_inputs : Ddb_qbf.Qbf.t list;  (** CEGAR kernel inputs *)
  expect : string -> bool option;
      (** independent expected answer by label (memoized; [None] when the
          reference cannot decide it either) *)
  cross_checks : unit -> (string * bool) list;
      (** second independent answers (small-universe model enumeration),
          computed only at verification *)
}

let n_registry = Trace.name "perfbench.registry"
let n_cegar = Trace.name "perfbench.cegar"
let n_request = Trace.name "request"

let ask eng ~limits q =
  match q.query with
  | Lit l -> Registry.infer_literal3_in eng ~limits ~sem:q.sem q.db l
  | Formula f -> Registry.infer_formula3_in eng ~limits ~sem:q.sem q.db f
  | Exists -> Registry.has_model3_in eng ~limits ~sem:q.sem q.db

(* Expected answers from the ablation engine (no memo, no fast paths):
   the generic lib/core procedures, independent of the two layers the
   shipped path adds.  On a definite database every semantics in the
   registry has the least model as its single intended model (the premise
   of the least-model fast path), so there the generic EGCWA procedure is
   the reference: the generic PWS procedure needs seconds per query on
   these databases. *)
let ablation_reference () =
  let ablation = Engine.create ~cache:false ~fastpath:false () in
  let bigger =
    Budget.limits ~ticks:(reference_factor * Option.get limits.Budget.ticks) ()
  in
  fun q ->
    let q = if (Ddb_frag.Frag.classify q.db).Ddb_frag.Frag.definite then { q with sem = "egcwa" } else q in
    match Budget.to_bool_opt (ask ablation ~limits q) with
    | Some b -> Some b
    | None -> Budget.to_bool_opt (ask ablation ~limits:bigger q)

(* Brute-force answer from the semantics' exhaustive model enumeration. *)
let enumeration_answer q =
  let s = Option.get (Registry.find q.sem) in
  let models = s.Ddb_core.Semantics.reference_models in
  match q.query with
  | Lit l -> Ddb_core.Semantics.reference_infer models q.db (Formula.of_lit l)
  | Formula f ->
    Ddb_core.Semantics.reference_infer models (Ddb_core.Semantics.for_query q.db f) f
  | Exists -> Ddb_core.Semantics.reference_has_model models q.db

(* [labelled] pairs each label with its lazily computed expected answer. *)
let memo_by_label labelled =
  let tbl = Hashtbl.create 1024 in
  List.iter (fun (label, v) -> Hashtbl.replace tbl label v) labelled;
  fun label ->
    match Hashtbl.find_opt tbl label with
    | Some v -> Lazy.force v
    | None -> failwith ("perfbench: no reference for " ^ label)

let query_references qs =
  let reference = ablation_reference () in
  List.map (fun (q : query_req) -> (q.label, lazy (reference q))) qs

let query_expect qs = memo_by_label (query_references qs)

let single_query_req ~make_engine (q : query_req) =
  { label = q.label; span = n_registry; run = (fun ctx -> ask (make_engine ctx) ~limits q) }

(* CEGAR kernel inputs for frontend_warm, which has no QBF requests: each
   small database's own ∃∀ question. *)
let db_qbfs dbs =
  List.filter_map (fun db -> if Db.num_vars db <= 40 then Some (Layers.db_qbf db) else None) dbs

let split3 l =
  List.fold_right (fun (a, b, c) (x, y, z) -> (a :: x, b :: y, c :: z)) l ([], [], [])

(* The reduction-image cells: per QBF, GCWA ⊨ ¬w on its GCWA image, DSM
   existence on its DSM image, and CEGAR validity — all checked against
   the truth table.  Returns the requests, their expected answers and the
   image databases. *)
let qbf_cells ~make_engine =
  let reqs, expected, dbs =
    split3
      (List.mapi
         (fun i q ->
           let gdb, w = Ddb_core.Reductions.qbf_to_gcwa q in
           let ddb = Ddb_core.Reductions.qbf_to_dsm_exists q in
           let lbl what = Printf.sprintf "qbf/q%d/%s" i what in
           let truth = lazy (Ddb_qbf.Naive.valid q) in
           let g = { label = lbl "gcwa"; sem = "gcwa"; db = gdb; query = Lit (Lit.Neg w) } in
           let d = { label = lbl "dsm"; sem = "dsm"; db = ddb; query = Exists } in
           ( [
               single_query_req ~make_engine g;
               single_query_req ~make_engine d;
               {
                 label = lbl "cegar";
                 span = n_cegar;
                 run = (fun _ -> Budget.eval limits (fun () -> Ddb_qbf.Cegar.valid q));
               };
             ],
             [
               (g.label, lazy (Some (not (Lazy.force truth))));
               (d.label, lazy (Some (Lazy.force truth)));
               (lbl "cegar", lazy (Some (Lazy.force truth)));
             ],
             [ gdb; ddb ] ))
         qbfs)
  in
  (List.concat reqs, List.concat expected, List.concat dbs)

(* table_cells: each cell is a cold one-shot query on a fresh engine, as
   in [ddbtool query]: the Table 1/2 ladder cells plus the reduction-image
   cells.  The engines stay reachable until the round ends, so
   [retained_mb] sees what one pass of cold engines holds. *)
type cold = { profile : bool; mutable made : Engine.t list }

let table_cells ~seed =
  let qs, dbs = Inputs.table_cells () in
  let make_engine ctx =
    let e = Engine.create ~profile:ctx.profile () in
    ctx.made <- e :: ctx.made;
    e
  in
  let qbf_reqs, qbf_expected, qbf_dbs = qbf_cells ~make_engine in
  let reqs = Array.append (Array.map (single_query_req ~make_engine) qs) (Array.of_list qbf_reqs) in
  Inputs.shuffle (Ddb_workload.Rng.create seed) reqs;
  let spec =
    {
      passes = 1;
      create = (fun ~profile -> { profile; made = [] });
      engines = (fun ctx -> ctx.made);
      reqs;
    }
  in
  {
    spec = W spec;
    dbs = dbs @ qbf_dbs;
    qbf_inputs = qbfs;
    expect = memo_by_label (query_references (Array.to_list qs) @ qbf_expected);
    cross_checks =
      (fun () ->
        List.filter_map
          (fun q -> if Db.num_vars q.db <= 10 then Some (q.label, enumeration_answer q) else None)
          (Array.to_list qs));
  }

(* frontend_warm: one long-lived engine, three round-robin passes. *)
let frontend_warm ~seed =
  let dbs = frontend_dbs ~seed in
  let qs = frontend_requests dbs in
  let spec =
    {
      passes = 3;
      create = (fun ~profile -> Engine.create ~profile ());
      engines = (fun e -> [ e ]);
      reqs = Array.of_list (List.map (single_query_req ~make_engine:Fun.id) qs);
    }
  in
  {
    spec = W spec;
    dbs = List.map (fun (_, db, _) -> db) dbs;
    qbf_inputs = db_qbfs (List.map (fun (_, db, _) -> db) dbs);
    expect = query_expect qs;
    cross_checks = (fun () -> []);
  }

let workloads =
  [
    ("table_cells", table_cells);
    ("frontend_warm", frontend_warm);
  ]

(* ---- measurement ------------------------------------------------------ *)

let now = Layers.now
let mb_of_words w = float_of_int w *. float_of_int (Sys.word_size / 8) /. 1e6

(* Linear interpolation between closest ranks. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let r = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float r in
    let hi = min (n - 1) (lo + 1) in
    sorted.(lo) +. ((r -. float_of_int lo) *. (sorted.(hi) -. sorted.(lo)))

(* The highest percentile with at least ten samples beyond it. *)
let tail_percentile n = if n <= 20 then 50. else 100. *. (1. -. (10. /. float_of_int n))

(* One round: [passes] passes over the requests on one context.  Returns
   the summed request latency; [on_request] sees each latency and answer.
   [traced] wraps each request in the benchmark's own span, with the
   request id as an attribute. *)
let round ?(traced = false) spec ctx ~on_request =
  let busy = ref 0. in
  for pass = 0 to spec.passes - 1 do
    Array.iteri
      (fun i r ->
        let t0 = now () in
        if traced then
          Trace.begin_args r.span [ (n_request, Trace.Int ((pass * Array.length spec.reqs) + i)) ];
        let a = r.run ctx in
        if traced then Trace.end_ r.span;
        let dt = now () -. t0 in
        busy := !busy +. dt;
        on_request pass i dt a)
      spec.reqs
  done;
  !busy

type metric = string * float * string

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : string list;
}

(* The engine's hash-consed theory count is only exported in its stats JSON. *)
let theories e =
  let j = Engine.stats_json e in
  let key = {|"theories":|} in
  let rec find i = if String.sub j i (String.length key) = key then i + String.length key else find (i + 1) in
  let start = find 0 in
  let stop = ref start in
  while !stop < String.length j && j.[!stop] >= '0' && j.[!stop] <= '9' do incr stop done;
  int_of_string (String.sub j start (!stop - start))

let engine_ops =
  [ "sat"; "aug_sat"; "aug_entails"; "support"; "in_some_minimal"; "minimal_models"; "mm_entails"; "non_entailed" ]

(* The traced pass: a fresh profiling context under a wall-clock trace,
   each request in a span of the benchmark's own, then the trace folded
   into per-layer self time and the layer kernels on the same inputs. *)
let layer_metrics spec (b : built) ~untraced_round_s : metric list =
  let ctx = spec.create ~profile:true in
  let work0 = Stats.snapshot () in
  Trace.start ~clock:Trace.Wall ();
  let traced_s = round ~traced:true spec ctx ~on_request:(fun _ _ _ _ -> ()) in
  Trace.stop ();
  let work = Stats.delta work0 in
  let events = Trace.dump () in
  let engines = spec.engines ctx in
  let tot = Engine.merge_stats engines in
  let n_theories = List.fold_left (fun acc e -> acc + theories e) 0 engines in
  let spans = Layers.fold events in
  let requests = float_of_int (Array.length spec.reqs * spec.passes) in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let per_req x = float_of_int x /. requests in
  let sat_ns, conflicts_s = Layers.solver_kernel b.dbs in
  let solves_per_model, us_per_model = Layers.minimal_kernel b.dbs in
  let key_us, hit_us = Layers.engine_kernels b.dbs in
  let qbf_rounds = Layers.count spans "qbf.cegar.round" and qbf_calls = Layers.count spans "qbf.cegar" in
  [
    ("engine.cache_hit_ratio", ratio tot.Engine.cache_hits (tot.Engine.cache_hits + tot.Engine.cache_misses), "ratio");
    ("engine.oracle_calls_per_request", per_req tot.Engine.oracle_calls, "calls");
    ("engine.theories", float_of_int n_theories, "count");
    ("engine.self_ms", Layers.self_ms spans "engine.", "ms");
    ("engine.theory_key_us", key_us, "us");
    ("engine.hit_us", hit_us, "us");
  ]
  @ List.concat_map
      (fun op ->
        [
          ("engine.op." ^ op ^ ".calls", Layers.count spans ("engine." ^ op), "count");
          ("engine.op." ^ op ^ ".p50_us", Layers.p50_us spans ("engine." ^ op), "us");
        ])
      engine_ops
  @ [
      ("sat.conflicts_per_request", per_req work.Stats.conflicts, "count");
      ("sat.propagations_per_request", per_req work.Stats.propagations, "count");
      ("sat.decisions_per_request", per_req work.Stats.decisions, "count");
      ("sat.self_ms", Layers.self_ms spans "sat.", "ms");
      ("sat.ns_per_propagation", sat_ns, "ns");
      ("sat.conflicts_per_s", conflicts_s, "1/s");
      ("sat.minimal.solves_per_model", solves_per_model, "calls");
      ("sat.minimal.us_per_model", us_per_model, "us");
      ("qbf.valid_us", Layers.cegar_kernel b.qbf_inputs, "us");
      ("qbf.rounds_per_query", (if qbf_calls = 0. then 0. else qbf_rounds /. qbf_calls), "rounds");
      ("qbf.self_ms", Layers.self_ms spans "qbf.", "ms");
      ("frag.classify_us", Layers.frag_kernel b.dbs, "us");
      ("frag.classifications", float_of_int tot.Engine.classifications, "count");
      ("fastpath.hit_ratio", ratio tot.Engine.fastpath_hits (tot.Engine.fastpath_hits + tot.Engine.fastpath_misses), "ratio");
      ("fastpath.self_ms", Layers.self_ms spans "fastpath.", "ms");
    ]
  @ List.map (fun sem -> ("core.scope_ms." ^ sem, Layers.incl_ms spans ("scope." ^ sem), "ms")) Registry.names
  @ [
      ("core.self_ms", Layers.self_ms spans "scope.", "ms");
      ("parallel.dispatch_us", Layers.pool_kernel (), "us");
      ("budget.wrap_us", Layers.budget_kernel limits, "us");
      ("budget.unknowns", float_of_int tot.Engine.unknowns, "count");
      ("obs.trace_overhead_pct", (traced_s -. untraced_round_s) /. untraced_round_s *. 100., "%");
      ("obs.events", float_of_int (Trace.events_recorded ()), "count");
      ("obs.dropped", float_of_int (Trace.dropped ()), "count");
    ]

let unknown_slot = Budget.Unknown Budget.Cancelled

(* The timed run on the last setup's context: whole rounds until
   [seconds] have passed (at least one), then heap figures, then the
   answer checks, then (with [trace]) the traced pass and kernels.
   [setups] holds the (total, generation) seconds of the set-ups so far;
   [resetup] runs one more between each two rounds. *)
let measure spec (b : built) first_ctx ~setups ~resetup ~seconds ~trace =
  let reqs = spec.reqs in
  let nreq = Array.length reqs in
  let labels = Array.concat (List.init spec.passes (fun _ -> Array.map (fun r -> r.label) reqs)) in
  (* Allocated before the heap baseline, so the loop's own bookkeeping does
     not show in [retained_mb].  [best.(k)] is request slot k's lowest
     latency over the rounds (slot = pass * nreq + request); [cur.(k)] its
     answer in the current round. *)
  let best = Float.Array.make (nreq * spec.passes) infinity in
  let first = Array.make (Array.length labels) unknown_slot in
  let cur = Array.make (Array.length labels) unknown_slot in
  let answers = ref 0 and definite = ref 0 and rounds = ref 0 in
  let nondeterministic = ref 0 in
  let round_walls = ref [] in
  let work = ref Stats.zero in
  let ctx = ref first_ctx in
  let setups = ref setups in
  (* The GC work of the set-ups between rounds, kept out of gc.*. *)
  let setup_minor = ref 0. and setup_promoted = ref 0. and setup_majors = ref 0 in
  Gc.full_major ();
  let live0 = (Gc.quick_stat ()).Gc.live_words in
  let gc0 = Gc.quick_stat () in
  let t_start = now () in
  while !rounds = 0 || now () -. t_start < seconds do
    if !rounds > 0 then begin
      ctx := spec.create ~profile:false;
      let g0 = Gc.quick_stat () in
      setups := resetup () :: !setups;
      let g1 = Gc.quick_stat () in
      setup_minor := !setup_minor +. g1.Gc.minor_words -. g0.Gc.minor_words;
      setup_promoted := !setup_promoted +. g1.Gc.promoted_words -. g0.Gc.promoted_words;
      setup_majors := !setup_majors + g1.Gc.major_collections - g0.Gc.major_collections
    end;
    let before = Stats.snapshot () in
    let wall =
      round spec !ctx ~on_request:(fun pass i dt a ->
          let k = (pass * nreq) + i in
          if dt < Float.Array.get best k then Float.Array.set best k dt;
          cur.(k) <- a)
    in
    work := Stats.merge [ !work; Stats.delta before ];
    round_walls := wall :: !round_walls;
    (* Outside the timed requests: tally, and hold later rounds to round 1. *)
    Array.iteri
      (fun i a ->
        incr answers;
        if Budget.to_bool_opt a <> None then incr definite;
        if !rounds = 0 then first.(i) <- a
        else
          match (Budget.to_bool_opt a, Budget.to_bool_opt first.(i)) with
          | Some x, Some y when x <> y -> incr nondeterministic
          | _ -> ())
      cur;
    incr rounds
  done;
  let gc1 = Gc.quick_stat () in
  Gc.full_major ();
  let live1 = (Gc.quick_stat ()).Gc.live_words in
  ignore (Sys.opaque_identity (spec.engines !ctx));
  let requests = nreq * spec.passes * !rounds in
  let sorted = Float.Array.to_list best |> List.sort compare |> Array.of_list in
  let best_round = Array.fold_left ( +. ) 0. sorted in
  let tail_p = tail_percentile (Array.length sorted) in
  (* ---- answer checks (not timed) ---- *)
  let mismatches = ref [] and unchecked = ref [] and undecided = ref [] in
  Array.iteri
    (fun i a ->
      match Budget.to_bool_opt a with
      | None -> if i < nreq then undecided := labels.(i) :: !undecided
      | Some got -> (
        match b.expect labels.(i) with
        | None -> unchecked := labels.(i) :: !unchecked
        | Some want -> if got <> want then mismatches := labels.(i) :: !mismatches))
    first;
  let answered = Hashtbl.create 1024 in
  Array.iteri
    (fun i a -> Option.iter (Hashtbl.replace answered labels.(i)) (Budget.to_bool_opt a))
    first;
  List.iter
    (fun (label, want) ->
      (match b.expect label with
      | Some v when v <> want -> mismatches := ("reference:" ^ label) :: !mismatches
      | _ -> ());
      match Hashtbl.find_opt answered label with
      | Some got when got <> want -> mismatches := label :: !mismatches
      | _ -> ())
    (b.cross_checks ());
  let n_consistent = List.length (List.filter consistent b.dbs) in
  let consistent_share = float_of_int n_consistent /. float_of_int (List.length b.dbs) in
  let correct = !mismatches = [] && !unchecked = [] && !nondeterministic = 0 && n_consistent = List.length b.dbs in
  let show l = String.concat ", " (List.filteri (fun i _ -> i < 12) (List.rev l)) ^ if List.length l > 12 then ", ..." else "" in
  let notes =
    [
      Printf.sprintf "%d round(s) of %d pass(es), %d requests, %d answers (%d definite), %d set-ups"
        !rounds spec.passes requests !answers !definite (List.length !setups);
      "round seconds: " ^ String.concat " " (List.rev_map (Printf.sprintf "%.3f") !round_walls);
      Printf.sprintf "latency_tail_us is p%g of %d best-of-%d-rounds samples (%d beyond it)" tail_p
        (Array.length sorted) !rounds
        (Float.to_int (Float.round (float_of_int (Array.length sorted) *. (1. -. (tail_p /. 100.)))));
      Printf.sprintf "undecided in round 1: %d%s" (List.length !undecided)
        (if !undecided = [] then "" else " (" ^ show !undecided ^ ")");
      Printf.sprintf "consistent instances: %d/%d" n_consistent (List.length b.dbs);
    ]
    @ (if !mismatches = [] then [] else [ "WRONG ANSWERS: " ^ show !mismatches ])
    @ (if !unchecked = [] then [] else [ "NO REFERENCE FOR: " ^ show !unchecked ])
    @ (if !nondeterministic = 0 then [] else [ Printf.sprintf "ROUNDS DISAGREE on %d definite answers" !nondeterministic ])
  in
  let e2e : metric list =
    [
      ("answers_per_s", float_of_int !definite /. float_of_int !rounds /. best_round, "1/s");
      ("latency_p50_us", percentile sorted 50. *. 1e6, "us");
      ("latency_tail_us", percentile sorted tail_p *. 1e6, "us");
      ("decided_share", float_of_int !definite /. float_of_int !answers, "ratio");
      ("sat_calls_per_request", float_of_int !work.Stats.sat /. float_of_int requests, "calls");
      ("setup_s", Layers.median (List.map fst !setups), "s");
      ("top_heap_mb", mb_of_words gc1.Gc.top_heap_words, "MB");
      ("retained_mb", mb_of_words (live1 - live0), "MB");
    ]
  in
  let metrics =
    if not trace then e2e
    else
      let per_request x = x /. float_of_int requests in
      [
        ("gc.minor_words_per_request",
          per_request (gc1.Gc.minor_words -. gc0.Gc.minor_words -. !setup_minor), "words");
        ("gc.promoted_words_per_request",
          per_request (gc1.Gc.promoted_words -. gc0.Gc.promoted_words -. !setup_promoted), "words");
        ("gc.major_collections",
          float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections - !setup_majors)
          /. float_of_int !rounds, "count");
        ("workload.gen_ms", Layers.median (List.map snd !setups) *. 1000., "ms");
        ("workload.consistent_share", consistent_share, "ratio");
      ]
      @ layer_metrics spec b
          ~untraced_round_s:(Layers.median !round_walls)
  in
  (* attempted/failed describe round 1, the round whose answers are
     checked, so they do not grow with machine speed. *)
  let failed = Array.fold_left (fun n a -> if Budget.to_bool_opt a = None then n + 1 else n) 0 first in
  let notes =
    if trace then notes @ List.map (fun (n, v, u) -> Printf.sprintf "untraced %s = %.6g %s" n v u) e2e
    else notes
  in
  { correct; attempted = Array.length first; failed; metrics; notes }

let setup_reps = 5

(* setup_s is the median of every set-up in a run (input generation plus
   engine creation): [setup_reps] before the first round, the last of
   which is the one measured, and one between each two rounds, so that the
   set-ups spread over the whole run and a spell of load on the machine
   moves few of them.  No collection is forced between rounds: the rounds
   then meet the GC at shifting points, so each request slot's best
   latency and the top heap do not hinge on one fixed GC schedule. *)
let run_workload build ~seed ~seconds ~trace =
  let resetup () =
    let t0 = now () in
    let b = build ~seed in
    let t1 = now () in
    let (W spec) = b.spec in
    ignore (Sys.opaque_identity (spec.create ~profile:false));
    (now () -. t0, t1 -. t0)
  in
  let setups = List.init (setup_reps - 1) (fun _ -> resetup ()) in
  let t0 = now () in
  let b = build ~seed in
  let t1 = now () in
  let (W spec) = b.spec in
  let ctx = spec.create ~profile:false in
  let setups = (now () -. t0, t1 -. t0) :: setups in
  measure spec b ctx ~setups ~resetup ~seconds ~trace

let json_of_result r =
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null" in
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|} r.correct r.attempted r.failed
    (String.concat ", "
       (List.map (fun (n, v, u) -> Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} n (num v) u) r.metrics))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" (List.map fst workloads));
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_float seconds, " how long the timed rounds run");
      ("--trace", Arg.Set_int trace, " 1: traced pass and per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench --workload NAME --seed N --seconds S --trace 0|1";
  match List.assoc_opt !workload workloads with
  | None ->
    prerr_endline ("perfbench: unknown workload " ^ !workload);
    exit 2
  | Some build ->
    let r = run_workload build ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) in
    Printf.printf "workload %s, seed %d\n" !workload !seed;
    List.iter (fun n -> Printf.printf "  %s\n" n) r.notes;
    List.iter (fun (n, v, u) -> Printf.printf "  %-36s %14.6g %s\n" n v u) r.metrics;
    print_endline (json_of_result r);
    exit (if r.correct then 0 else 1)
