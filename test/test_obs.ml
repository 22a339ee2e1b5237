open Ddb_db
open Ddb_workload
open Ddb_parallel
open Alcotest
module Stats = Ddb_sat.Stats
module Trace = Ddb_obs.Trace
module Metrics = Ddb_obs.Metrics
module Engine = Ddb_engine.Engine
module Registry = Ddb_core.Registry
module Semantics = Ddb_core.Semantics

(* An unbudgeted literal sweep: every cell under [Budget.no_limits]. *)
let literal_sweep b db =
  Batch.literal_sweep3 b ~limits:Ddb_budget.Budget.no_limits db

(* Tests for the observability layer: the Stats.merge monoid (qcheck), the
   Metrics registry (merge algebra, percentile sanity, deterministic JSON),
   the trace recorder (balanced spans, deterministic logical-clock output,
   probe gating), the engine/solver probe sites, and the pinned scheduler
   that makes parallel traces reproducible. *)

(* --- Stats.merge is a commutative monoid with identity [zero] --- *)

let snap_arb =
  QCheck.make
    ~print:(fun s -> Fmt.str "%a" Stats.pp s)
    QCheck.Gen.(
      int_bound 1000 >>= fun sat ->
      int_bound 1000 >>= fun sigma2 ->
      int_bound 1000 >>= fun conflicts ->
      int_bound 1000 >>= fun decisions ->
      int_bound 1000 >>= fun propagations ->
      return { Stats.sat; sigma2; conflicts; decisions; propagations })

let qcheck_stats_merge_associative =
  QCheck.Test.make ~count:(Gen.qcheck_count 100)
    ~name:"stats: merge is associative (and equals the flat fold)"
    (QCheck.triple snap_arb snap_arb snap_arb)
    (fun (a, b, c) ->
      let left = Stats.merge [ Stats.merge [ a; b ]; c ] in
      let right = Stats.merge [ a; Stats.merge [ b; c ] ] in
      let flat = Stats.merge [ a; b; c ] in
      left = right && left = flat)

let qcheck_stats_merge_commutative =
  QCheck.Test.make ~count:(Gen.qcheck_count 100)
    ~name:"stats: merge is commutative" (QCheck.pair snap_arb snap_arb)
    (fun (a, b) -> Stats.merge [ a; b ] = Stats.merge [ b; a ])

let qcheck_stats_merge_zero_identity =
  QCheck.Test.make ~count:(Gen.qcheck_count 100)
    ~name:"stats: zero is a two-sided merge identity" snap_arb (fun a ->
      Stats.merge [ a; Stats.zero ] = a
      && Stats.merge [ Stats.zero; a ] = a
      && Stats.merge [] = Stats.zero)

(* --- Metrics: merge algebra and summaries --- *)

let registry_of (counters, observations) =
  let m = Metrics.create () in
  List.iter (fun (k, by) -> Metrics.incr_counter ~by m k) counters;
  List.iter (fun (k, v) -> Metrics.observe m k v) observations;
  m

let metrics_input_arb =
  let open QCheck.Gen in
  let key = oneofl [ "engine.sat"; "engine.support"; "qbf.cegar" ] in
  let counters = small_list (pair key (int_range 1 50)) in
  let observations = small_list (pair key (float_bound_inclusive 1e6)) in
  QCheck.make
    ~print:(fun (cs, os) ->
      Fmt.str "counters=%a obs=%a"
        Fmt.(Dump.list (Dump.pair string int))
        cs
        Fmt.(Dump.list (Dump.pair string float))
        os)
    (pair counters observations)

let qcheck_metrics_merge_algebra =
  QCheck.Test.make ~count:(Gen.qcheck_count 50)
    ~name:
      "metrics: merge is associative/commutative up to to_json, counts add"
    (QCheck.triple metrics_input_arb metrics_input_arb metrics_input_arb)
    (fun (ia, ib, ic) ->
      let json inputs =
        Metrics.to_json ~unit:"us" (Metrics.merge (List.map registry_of inputs))
      in
      let assoc_comm =
        json [ ia; ib; ic ] = json [ ic; ia; ib ]
        && json [ ia; ib ] = json [ ib; ia ]
      in
      (* pointwise: a merged histogram's count is the sum of the parts' *)
      let a = registry_of ia and b = registry_of ib in
      let merged = Metrics.merge [ a; b ] in
      let counts m =
        List.fold_left
          (fun acc (_, s) -> acc + s.Metrics.count)
          0
          (Metrics.histogram_summaries m)
      in
      let counters_add =
        List.for_all
          (fun (k, v) ->
            v = Metrics.counter_value a k + Metrics.counter_value b k)
          (Metrics.counter_values merged)
      in
      assoc_comm && counts merged = counts a + counts b && counters_add)

let metrics_summary_sanity () =
  let m = Metrics.create () in
  List.iter (Metrics.observe m "lat") [ 3.; 700.; 0.2; 15.; 15.; 90. ];
  let s = Metrics.histogram_summary m "lat" in
  check int "count" 6 s.Metrics.count;
  check (float 1e-9) "sum" 823.2 s.Metrics.sum;
  check (float 1e-9) "min" 0.2 s.Metrics.min;
  check (float 1e-9) "max" 700. s.Metrics.max;
  check bool "percentiles ordered" true
    (s.Metrics.p50 <= s.Metrics.p90 && s.Metrics.p90 <= s.Metrics.p99);
  check bool "percentiles clamped to [min,max]" true
    (s.Metrics.p50 >= s.Metrics.min && s.Metrics.p99 <= s.Metrics.max);
  (* log2 buckets: a p50 estimate is within a factor of 2 of the true
     median (here between 15 and 90) *)
  check bool "p50 near the median" true
    (s.Metrics.p50 >= 8. && s.Metrics.p50 <= 180.)

let metrics_zero_and_json () =
  let empty = Metrics.merge [] in
  check (list (pair string int)) "empty counters" []
    (Metrics.counter_values empty);
  check string "empty json" {|{"unit":"us","counters":{},"histograms":{}}|}
    (Metrics.to_json ~unit:"us" empty);
  let m = registry_of ([ ("b", 2); ("a", 1) ], [ ("h", 4.) ]) in
  (* names are emitted sorted, so the export is deterministic *)
  let j = Metrics.to_json ~unit:"us" m in
  check string "deterministic json" j (Metrics.to_json ~unit:"us" m);
  check (list (pair string int)) "sorted counters"
    [ ("a", 1); ("b", 2) ]
    (Metrics.counter_values m);
  (* merging with the zero registry changes nothing observable *)
  check string "zero identity" j
    (Metrics.to_json ~unit:"us" (Metrics.merge [ m; Metrics.create () ]))

(* --- Trace recorder mechanics --- *)

(* Every trace test must stop the global recorder even on failure, or the
   probe flag would leak into unrelated tests. *)
let with_trace ?clock f =
  Trace.start ?clock ();
  Fun.protect ~finally:Trace.stop f

let spans_balanced events =
  let tbl = Hashtbl.create 8 in
  List.for_all
    (fun (tid, _name, ph, _ts) ->
      let d = Option.value (Hashtbl.find_opt tbl tid) ~default:0 in
      match ph with
      | 'B' ->
        Hashtbl.replace tbl tid (d + 1);
        true
      | 'E' ->
        Hashtbl.replace tbl tid (d - 1);
        d > 0
      | _ -> true)
    events
  && Hashtbl.fold (fun _ d acc -> acc && d = 0) tbl true

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let trace_gating () =
  with_trace (fun () -> Trace.instant (Trace.name "during")) |> ignore;
  let n = Trace.events_recorded () in
  check bool "recorded while enabled" true (n >= 2) (* trace.start + during *);
  Trace.begin_ (Trace.name "after.stop");
  Trace.end_ (Trace.name "after.stop");
  check int "probes are no-ops when disabled" n (Trace.events_recorded ());
  check bool "trace.start instant present" true
    (List.exists
       (fun (_, name, ph, _) -> name = "trace.start" && ph = 'i')
       (Trace.dump ()))

let traced_engine_run () =
  with_trace (fun () ->
      let db = Random_db.with_integrity ~seed:11 ~num_vars:5 in
      let eng = Engine.create () in
      let lits =
        List.concat_map
          (fun x -> Ddb_logic.Lit.[ Neg x; Pos x ])
          (List.init (Db.num_vars db) Fun.id)
      in
      List.iter
        (fun sem ->
          List.iter
            (fun l ->
              ignore ((Registry.in_exn eng sem).Semantics.infer_literal db l))
            lits)
        (Registry.applicable_names db));
  (Trace.dump (), Trace.to_string ())

let engine_spans_present () =
  let events, json = traced_engine_run () in
  check bool "balanced" true (spans_balanced events);
  let have n = List.exists (fun (_, name, _, _) -> name = n) events in
  check bool "scope spans" true (have "scope.gcwa");
  check bool "oracle op spans" true (have "engine.sat" || have "engine.support");
  check bool "solver spans" true (have "sat.solve");
  (* the memoizing engine answers repeated queries from cache, and the
     span's cache_hit attribute records it *)
  check bool "cache_hit attr serialized" true
    (contains json {|"cache_hit":true|} && contains json {|"cache_hit":false|});
  check bool "theory attr serialized" true (contains json {|"theory":|});
  check bool "conflict deltas serialized" true (contains json {|"conflicts":|})

let traces_byte_identical () =
  let _, a = traced_engine_run () in
  let _, b = traced_engine_run () in
  check bool "same workload, byte-identical logical-clock trace" true (a = b);
  check bool "logical clock recorded in metadata" true
    (contains a {|"clock":"logical"|})

let pinned_batch_trace_deterministic () =
  let db = Random_db.with_integrity ~seed:19 ~num_vars:6 in
  let run () =
    with_trace (fun () ->
        Batch.with_batch ~jobs:4 ~pinned:true (fun b ->
            ignore (literal_sweep b db)));
    (Trace.dump (), Trace.to_string ())
  in
  let events, a = run () in
  let _, b = run () in
  check bool "jobs:4 pinned trace is byte-identical across runs" true (a = b);
  check bool "balanced per worker lane" true (spans_balanced events);
  let tids =
    List.sort_uniq compare (List.map (fun (tid, _, _, _) -> tid) events)
  in
  check (list int) "worker lanes 0..3" [ 0; 1; 2; 3 ] tids;
  check bool "pool task spans" true
    (List.exists (fun (_, name, _, _) -> name = "pool.task") events)

(* --- the pinned scheduler --- *)

let map_pinned_placement () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let got =
            Parallel.map_pinned_in pool
              (fun ~worker k -> (worker, k * k))
              (List.init 23 Fun.id)
          in
          List.iteri
            (fun k (w, sq) ->
              check int (Printf.sprintf "jobs:%d item %d worker" jobs k)
                (k mod jobs) w;
              check int "value" (k * k) sq)
            got))
    [ 1; 3; 4 ]

let pinned_sweep_equals_chunked () =
  let db = Random_db.with_integrity ~seed:7 ~num_vars:6 in
  let chunked =
    Batch.with_batch ~jobs:4 (fun b -> literal_sweep b db)
  in
  let pinned =
    Batch.with_batch ~jobs:4 ~pinned:true (fun b -> literal_sweep b db)
  in
  check bool "pinned placement changes nothing observable" true
    (chunked = pinned)

(* --- engine metrics (profile mode) --- *)

let engine_profile_metrics () =
  let db = Random_db.with_integrity ~seed:13 ~num_vars:5 in
  let eng = Engine.create ~profile:true () in
  List.iter
    (fun sem -> ignore ((Registry.in_exn eng sem).Semantics.has_model db))
    (Registry.applicable_names db);
  let m = Engine.metrics eng in
  let total_hits_misses op =
    Metrics.counter_value m (op ^ ".hits") + Metrics.counter_value m (op ^ ".misses")
  in
  check bool "histograms recorded" true (Metrics.histogram_summaries m <> []);
  List.iter
    (fun (op, s) ->
      check bool (op ^ " count matches hit+miss counters") true
        (s.Metrics.count = total_hits_misses op))
    (Metrics.histogram_summaries m);
  let json = Engine.metrics_json eng in
  check bool "metrics json has engine histograms" true
    (contains json {|"engine.|});
  (* profiling off: the registry stays empty *)
  let quiet = Engine.create () in
  ignore ((Registry.in_exn quiet "gcwa").Semantics.has_model db);
  check (list (pair string int)) "no metrics without profile" []
    (Metrics.counter_values (Engine.metrics quiet))

let batch_merged_metrics () =
  let db = Random_db.with_integrity ~seed:23 ~num_vars:5 in
  Batch.with_batch ~jobs:3 ~pinned:true ~profile:true (fun b ->
      ignore (literal_sweep b db);
      let json = Batch.metrics_json b in
      check bool "merged shard metrics non-empty" true
        (contains json {|"engine.|});
      (* the merged export equals merging the shards by hand, in order *)
      check string "merge equals Engine.merged_metrics_json" json
        (Engine.merged_metrics_json (Batch.engines b)))

let suites =
  [
    ( "obs.stats_merge",
      [
        QCheck_alcotest.to_alcotest qcheck_stats_merge_associative;
        QCheck_alcotest.to_alcotest qcheck_stats_merge_commutative;
        QCheck_alcotest.to_alcotest qcheck_stats_merge_zero_identity;
      ] );
    ( "obs.metrics",
      [
        QCheck_alcotest.to_alcotest qcheck_metrics_merge_algebra;
        test_case "summary: count/sum/extrema/percentile sanity" `Quick
          metrics_summary_sanity;
        test_case "zero registry and deterministic JSON export" `Quick
          metrics_zero_and_json;
      ] );
    ( "obs.trace",
      [
        test_case "probes record only while enabled" `Quick trace_gating;
        test_case "engine run: balanced spans with oracle/solver probes"
          `Quick engine_spans_present;
        test_case "logical clock: byte-identical traces across runs" `Quick
          traces_byte_identical;
        test_case "jobs:4 pinned batch trace is deterministic" `Quick
          pinned_batch_trace_deterministic;
      ] );
    ( "obs.pinned",
      [
        test_case "map_pinned_in places item k on worker k mod jobs" `Quick
          map_pinned_placement;
        test_case "pinned sweep = chunked sweep" `Quick
          pinned_sweep_equals_chunked;
      ] );
    ( "obs.profile",
      [
        test_case "engine profile metrics and gating" `Quick
          engine_profile_metrics;
        test_case "batch merges shard metrics in worker order" `Quick
          batch_merged_metrics;
      ] );
  ]
