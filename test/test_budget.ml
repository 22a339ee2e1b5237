open Ddb_logic
open Ddb_sat
open Ddb_core
open Ddb_workload
open Ddb_parallel
open Alcotest
module Engine = Ddb_engine.Engine
module Budget = Ddb_budget.Budget

(* Tests for the budget/cancellation subsystem: token mechanics (caps,
   sticky trips, groups), the budget-differential law (a budgeted query
   answers Unknown or exactly the unbudgeted answer — all ten semantics,
   jobs:1 and jobs:4), the unlimited-budget ≡ old-API equivalence,
   deterministic fault injection against the memo tables, pool draining
   under cancel-on-error, and the enumeration truncation flag. *)

let answer =
  testable (fun fmt a -> Fmt.string fmt (Budget.string_of_answer a))
    Budget.answer_equal

let lit = testable (fun fmt l -> Lit.pp fmt l) Lit.equal
let sweep3_testable = list (pair string (list (pair lit answer)))

let pm_literals db =
  List.concat_map
    (fun x -> [ Lit.Neg x; Lit.Pos x ])
    (List.init (Ddb_db.Db.num_vars db) Fun.id)

(* --- token mechanics --- *)

let limits_and_escalate () =
  check bool "no_limits is unlimited" true (Budget.is_unlimited Budget.no_limits);
  let l = Budget.limits ~conflicts:5 ~ticks:2 () in
  check bool "capped is not unlimited" false (Budget.is_unlimited l);
  let e = Budget.escalate l in
  check (option int) "conflicts x4" (Some 20) e.Budget.conflicts;
  check (option int) "ticks x4" (Some 8) e.Budget.ticks;
  check (option int) "uncapped stays uncapped" None e.Budget.propagations;
  let e10 = Budget.escalate ~factor:10 l in
  check (option int) "factor 10" (Some 50) e10.Budget.conflicts

let eval_and_sticky_trip () =
  check answer "eval true" Budget.True
    (Budget.eval Budget.no_limits (fun () -> true));
  check answer "eval false" Budget.False
    (Budget.eval Budget.no_limits (fun () -> false));
  check answer "eval exhausts"
    (Budget.Unknown Budget.Budget_exhausted)
    (Budget.eval
       (Budget.limits ~ticks:3 ())
       (fun () ->
         for _ = 1 to 10 do
           Budget.check ()
         done;
         true));
  (* sticky: once tripped, every later probe under the token re-raises,
     even if the computation swallowed the first trip *)
  let tok = Budget.token (Budget.limits ~ticks:1 ()) in
  Budget.with_token tok (fun () ->
      Budget.check ();
      (try Budget.check () with Budget.Out_of_budget _ -> ());
      check bool "tripped recorded" true
        (Budget.tripped tok = Some Budget.Budget_exhausted);
      match Budget.check () with
      | () -> fail "sticky trip did not re-raise"
      | exception Budget.Out_of_budget Budget.Budget_exhausted -> ())

let conflict_and_model_caps () =
  let tok = Budget.token (Budget.limits ~conflicts:2 ()) in
  Budget.with_token tok (fun () ->
      Budget.charge ~conflicts:1 ();
      Budget.charge ~conflicts:1 ~propagations:50 ();
      match Budget.charge ~conflicts:1 () with
      | () -> fail "conflict cap did not trip"
      | exception Budget.Out_of_budget Budget.Budget_exhausted -> ());
  let tok = Budget.token (Budget.limits ~models:2 ()) in
  Budget.with_token tok (fun () ->
      Budget.on_model ();
      Budget.on_model ();
      match Budget.on_model () with
      | () -> fail "model cap did not trip"
      | exception Budget.Out_of_budget Budget.Budget_exhausted -> ())

let cancellation () =
  let tok = Budget.token Budget.no_limits in
  Budget.cancel tok;
  Budget.with_token tok (fun () ->
      match Budget.check () with
      | () -> fail "cancel was ignored"
      | exception Budget.Out_of_budget Budget.Cancelled -> ());
  let g = Budget.group () in
  let t1 = Budget.token ~group:g Budget.no_limits in
  let t2 = Budget.token ~group:g Budget.no_limits in
  check bool "group starts live" false (Budget.group_cancelled g);
  Budget.cancel_group g;
  check bool "group cancelled" true (Budget.group_cancelled g);
  List.iter
    (fun tok ->
      Budget.with_token tok (fun () ->
          match Budget.on_oracle_op () with
          | () -> fail "group cancel was ignored"
          | exception Budget.Out_of_budget Budget.Cancelled -> ()))
    [ t1; t2 ]

let probes_noop_without_token () =
  check bool "no ambient token" false (Budget.active ());
  (* every probe is a no-op with no token installed and no fault armed *)
  Budget.charge ~conflicts:5 ~propagations:100 ();
  Budget.on_solve ();
  Budget.check ();
  Budget.on_model ();
  Budget.on_oracle_op ();
  check bool "still no token" true (Budget.current () = None)

(* --- engine integration: unknowns counter and the retry ladder --- *)

let retry_ladder () =
  (* a synthetic oracle needing 5 ticks against a 3-tick budget: the first
     attempt trips, the escalated (x4 = 12 ticks) retry succeeds *)
  let f () =
    for _ = 1 to 5 do
      Budget.check ()
    done;
    true
  in
  let lims = Budget.limits ~ticks:3 () in
  let eng = Engine.create () in
  check answer "no retry degrades"
    (Budget.Unknown Budget.Budget_exhausted)
    (Engine.budgeted eng lims ~sem:"probe" f);
  check int "unknown recorded" 1 (Engine.totals eng).Engine.unknowns;
  let eng = Engine.create () in
  check answer "retry escalates to a definite answer" Budget.True
    (Engine.budgeted ~retry:true eng lims ~sem:"probe" f);
  check int "the failed first attempt is still recorded" 1
    (Engine.totals eng).Engine.unknowns

(* --- the budget-differential law ---

   For every semantics and every ± literal: the budgeted query returns
   Unknown or exactly the unbudgeted answer, never a wrong definite one;
   and with purely logical caps on cache-disabled shards the whole
   three-valued sweep — including WHICH cells are Unknown — is identical
   at jobs:1 and jobs:4. *)

let sequential_bool_sweep db =
  let eng = Engine.create () in
  List.map
    (fun sem ->
      ( sem,
        List.map
          (fun l -> (l, (Registry.in_exn eng sem).Semantics.infer_literal db l))
          (pm_literals db) ))
    (Registry.applicable_names db)

let qcheck_budget_differential =
  QCheck.Test.make ~count:(Gen.qcheck_count 10)
    ~name:
      "budget: budgeted sweep = Unknown-or-exact, identical at jobs:1/jobs:4"
    (QCheck.int_bound 999999)
    (fun seed ->
      let rand = Random.State.make [| seed |] in
      let num_vars = 1 + Random.State.int rand 5 in
      let db =
        Random_db.generate ~seed:(Random.State.int rand 10000) ~num_vars ()
      in
      let limits = Budget.limits ~ticks:(1 + Random.State.int rand 40) () in
      let expect = sequential_bool_sweep db in
      let sweep jobs =
        Batch.with_batch ~jobs ~cache:false (fun b ->
            Batch.literal_sweep3 b ~limits db)
      in
      let j1 = sweep 1 in
      let j4 = sweep 4 in
      j1 = j4
      && List.for_all2
           (fun (sem, bools) (sem3, answers) ->
             sem = sem3
             && List.for_all2
                  (fun (l, e) (l3, a) ->
                    Lit.equal l l3
                    &&
                    match a with
                    | Budget.Unknown _ -> true
                    | a -> Budget.answer_equal a (Budget.of_bool e))
                  bools answers)
           expect j1)

let jobs_invariant_unknown_cells () =
  let db = Random_db.with_integrity ~seed:19 ~num_vars:6 in
  let limits = Budget.limits ~ticks:6 () in
  let sweep jobs =
    Batch.with_batch ~jobs ~cache:false (fun b ->
        Batch.literal_sweep3 b ~limits db)
  in
  let j1 = sweep 1 in
  check sweep3_testable "jobs:1 = jobs:4 including Unknown cells" j1 (sweep 4);
  let cells = List.concat_map snd j1 in
  let unknown (_, a) =
    match a with Budget.Unknown _ -> true | _ -> false
  in
  check bool "some cells degraded" true (List.exists unknown cells);
  check bool "some cells stayed definite" true
    (List.exists (fun c -> not (unknown c)) cells)

let unlimited_equals_old_api () =
  let db = Random_db.with_integrity ~seed:7 ~num_vars:6 in
  let ref_eng = Engine.create () in
  let bud_eng = Engine.create () in
  List.iter
    (fun sem ->
      List.iter
        (fun l ->
          let e = (Registry.in_exn ref_eng sem).Semantics.infer_literal db l in
          check answer
            (Printf.sprintf "%s %s" sem (Lit.to_string l))
            (Budget.of_bool e)
            (Registry.infer_literal3_in bud_eng ~limits:Budget.no_limits ~sem
               db l))
        (pm_literals db))
    (Registry.applicable_names db);
  let a = Engine.totals ref_eng and b = Engine.totals bud_eng in
  (* identical instrumentation, field for field (wall_ms excluded) *)
  check int "oracle calls" a.Engine.oracle_calls b.Engine.oracle_calls;
  check int "cache hits" a.Engine.cache_hits b.Engine.cache_hits;
  check int "cache misses" a.Engine.cache_misses b.Engine.cache_misses;
  check int "sat solves" a.Engine.sat_solve_calls b.Engine.sat_solve_calls;
  check int "sigma2 queries" a.Engine.sigma2_queries b.Engine.sigma2_queries;
  check int "conflicts" a.Engine.sat_conflicts b.Engine.sat_conflicts;
  check int "decisions" a.Engine.sat_decisions b.Engine.sat_decisions;
  check int "propagations" a.Engine.sat_propagations b.Engine.sat_propagations;
  check int "no unknowns under no_limits" 0 b.Engine.unknowns

(* --- fault injection ---

   Deterministically fail the (k+1)-th engine oracle op for a sweep of k:
   whenever the fault fires the answer degrades to Unknown(injected_fault),
   and the memo tables stay sound — the same engine, re-queried without a
   fault, gives the correct definite answer (Unknown is never cached). *)

let fault_memo_soundness () =
  let db = Random_db.with_integrity ~seed:11 ~num_vars:5 in
  let l = Lit.Neg 0 in
  let sem = "gcwa" in
  let expect =
    let e = Engine.create () in
    (Registry.in_exn e sem).Semantics.infer_literal db l
  in
  let fired_at_least_once = ref false in
  for k = 0 to 8 do
    let eng = Engine.create () in
    Budget.Fault.arm ~after:k ();
    let ans = Registry.infer_literal3_in eng ~limits:Budget.no_limits ~sem db l in
    let fired = not (Budget.Fault.armed ()) in
    Budget.Fault.disarm ();
    if fired then begin
      fired_at_least_once := true;
      check answer
        (Printf.sprintf "k=%d degrades to the injected fault" k)
        (Budget.Unknown Budget.Injected_fault) ans
    end
    else
      check answer
        (Printf.sprintf "k=%d beyond the query: definite" k)
        (Budget.of_bool expect) ans;
    check int
      (Printf.sprintf "k=%d unknowns counter" k)
      (if fired then 1 else 0)
      (Engine.totals eng).Engine.unknowns;
    (* memo soundness: same engine, no fault -> the correct answer *)
    check bool
      (Printf.sprintf "k=%d post-fault requery is correct" k)
      expect
      ((Registry.in_exn eng sem).Semantics.infer_literal db l)
  done;
  check bool "the sweep exercised the fault" true !fired_at_least_once

let fault_solver_failure () =
  let db = Random_db.with_integrity ~seed:13 ~num_vars:5 in
  let sem = "egcwa" in
  let expect =
    let e = Engine.create () in
    (Registry.in_exn e sem).Semantics.has_model db
  in
  let eng = Engine.create () in
  Budget.Fault.arm ~kind:Budget.Fault.Solver_failure ~after:0 ();
  (match Registry.has_model3_in eng ~limits:Budget.no_limits ~sem db with
  | _ -> fail "expected Simulated_solver_failure to propagate"
  | exception Budget.Fault.Simulated_solver_failure -> ());
  check bool "the fault disarmed itself" false (Budget.Fault.armed ());
  Budget.Fault.disarm ();
  (* a simulated crash does not poison the engine *)
  check bool "engine recovers" expect ((Registry.in_exn eng sem).Semantics.has_model db)

(* --- pool draining under cancel-on-error --- *)

exception Boom of int

(* jobs:1 runs the tasks inline in submission order, so the raiser cancels
   the group before any spinner starts: every spinner must see Cancelled on
   its very first probe. *)
let pool_cancel_on_error_inline () =
  let g = Budget.group () in
  let outcomes = Array.make 4 `Pending in
  (match
     Pool.with_pool ~jobs:1 (fun pool ->
         Pool.run ~cancel_on_error:g pool
           (List.init 4 (fun i _worker ->
                if i = 0 then raise (Boom i)
                else
                  Budget.with_token
                    (Budget.token ~group:g Budget.no_limits)
                    (fun () ->
                      match Budget.check () with
                      | () -> outcomes.(i) <- `Ran
                      | exception Budget.Out_of_budget Budget.Cancelled ->
                        outcomes.(i) <- `Cancelled))))
   with
  | () -> fail "expected Boom"
  | exception Boom 0 -> ());
  check bool "group cancelled" true (Budget.group_cancelled g);
  for i = 1 to 3 do
    check bool
      (Printf.sprintf "task %d degraded on its first probe" i)
      true
      (outcomes.(i) = `Cancelled)
  done

(* jobs:4, concurrent: three spinners probe until cancelled (with a wall
   safety bound so a broken cancellation path fails instead of hanging);
   the raiser's exception must cancel them, the pool must drain all four
   tasks, and Boom must still propagate from the join. *)
let pool_cancel_on_error_concurrent () =
  let g = Budget.group () in
  let outcomes = Array.make 4 `Pending in
  (match
     Pool.with_pool ~jobs:4 (fun pool ->
         Pool.run ~cancel_on_error:g pool
           (List.init 4 (fun i _worker ->
                if i = 0 then raise (Boom i)
                else
                  Budget.with_token
                    (Budget.token ~group:g Budget.no_limits)
                    (fun () ->
                      let deadline = Unix.gettimeofday () +. 10. in
                      match
                        while Unix.gettimeofday () < deadline do
                          Budget.check ()
                        done
                      with
                      | () -> outcomes.(i) <- `Timeout
                      | exception Budget.Out_of_budget Budget.Cancelled ->
                        outcomes.(i) <- `Cancelled))))
   with
  | () -> fail "expected Boom"
  | exception Boom 0 -> ());
  check bool "group cancelled" true (Budget.group_cancelled g);
  for i = 1 to 3 do
    check bool
      (Printf.sprintf "spinner %d was cancelled, pool drained" i)
      true
      (outcomes.(i) = `Cancelled)
  done

(* --- the enumeration truncation flag (regression: silent ?limit) --- *)

let enum_truncation_flag () =
  (* empty theory over 3 atoms: 8 models *)
  check int "8 models unclipped" 8 (List.length (Enum.all_models ~num_vars:3 []));
  let tr = ref false in
  check int "limit 3 reports 3" 3
    (List.length (Enum.all_models ~limit:3 ~truncated:tr ~num_vars:3 []));
  check bool "truncation surfaced" true !tr;
  let tr = ref false in
  ignore (Enum.all_models ~limit:20 ~truncated:tr ~num_vars:3 []);
  check bool "a slack limit is not truncation" false !tr;
  let tr = ref false in
  check int "count_models clipped" 3
    (Enum.count_models ~limit:3 ~truncated:tr ~num_vars:3 []);
  check bool "count truncation surfaced" true !tr

let minimal_truncation_flag () =
  (* a | b | c: three ⊆-minimal models, the singletons *)
  let th = Minimal.theory ~num_vars:3 [ [ Lit.Pos 0; Lit.Pos 1; Lit.Pos 2 ] ] in
  check int "3 minimal models unclipped" 3 (List.length (Minimal.all_minimal th));
  let tr = ref false in
  check int "limit 1 reports 1" 1
    (List.length (Minimal.all_minimal ~limit:1 ~truncated:tr th));
  check bool "truncation surfaced" true !tr;
  let tr = ref false in
  ignore (Minimal.all_minimal ~limit:10 ~truncated:tr th);
  check bool "a slack limit is not truncation" false !tr

let suites =
  [
    ( "budget.mechanics",
      [
        test_case "limits and the escalate ladder" `Quick limits_and_escalate;
        test_case "eval degrades; trips are sticky" `Quick eval_and_sticky_trip;
        test_case "conflict and model caps trip" `Quick conflict_and_model_caps;
        test_case "token and group cancellation" `Quick cancellation;
        test_case "probes are no-ops without a token" `Quick
          probes_noop_without_token;
        test_case "engine retry ladder records the first attempt" `Quick
          retry_ladder;
      ] );
    ( "budget.differential",
      [
        QCheck_alcotest.to_alcotest qcheck_budget_differential;
        test_case "unknown cells are jobs-invariant under a tick deadline"
          `Quick jobs_invariant_unknown_cells;
        test_case "unlimited budget = old API, answers and counters" `Quick
          unlimited_equals_old_api;
      ] );
    ( "budget.fault",
      [
        test_case "k-swept injected fault: memo stays sound" `Quick
          fault_memo_soundness;
        test_case "simulated solver failure propagates, engine recovers"
          `Quick fault_solver_failure;
      ] );
    ( "budget.pool",
      [
        test_case "cancel-on-error degrades inline tasks deterministically"
          `Quick pool_cancel_on_error_inline;
        test_case "cancel-on-error cancels concurrent spinners, pool drains"
          `Quick pool_cancel_on_error_concurrent;
      ] );
    ( "budget.truncation",
      [
        test_case "Enum.all_models/count_models surface ?limit clipping"
          `Quick enum_truncation_flag;
        test_case "Minimal.all_minimal surfaces ?limit clipping" `Quick
          minimal_truncation_flag;
      ] );
  ]
