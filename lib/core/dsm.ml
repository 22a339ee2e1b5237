open Ddb_logic
open Ddb_db

(* DSM — Przymusinski's Disjunctive Stable Model semantics, generalizing
   Gelfond–Lifschitz stable models to disjunctive heads:

     DSM(DB) = { M : M ∈ MM(DB^M) }

   where DB^M is the Gelfond–Lifschitz reduct.  Facts used:
     - DSM(DB) ⊆ MM(DB) — so the engines enumerate minimal models of DB and
       screen each with the stability check;
     - the stability check is: M ⊨ DB^M and M is a ⊆-minimal model of DB^M
       (one SAT call);
     - on positive databases DB^M = DB, hence DSM(DB) = MM(DB): Table 1's
       DSM row collapses onto EGCWA. *)

(* Definitional check: compute the reduct, then one minimality call on a
   fresh solver.  The reference engine and the tests use it. *)
let is_stable db m =
  let reduct = Reduct.gl db m in
  Db.satisfied_by m reduct
  && Ddb_sat.Minimal.is_minimal (Db.theory reduct)
       (Partition.minimize_all (Db.num_vars db))
       m

(* The stability checker: DB^M for every M at once, in one solver.
   Variables 0..n-1 are the atoms of a candidate N, the shadow atom
   m_x = n + x is pinned to M by assumptions, and d_x = 2n + x marks
   x ∈ M∖N.  A rule H ← B⁺, not B⁻ survives in DB^M iff B⁻ ∩ M = ∅, so it
   becomes the clause H(N) ∨ ¬B⁺(N) ∨ m(B⁻).  With N ⊆ M (¬n_x ∨ m_x) and
   N ≠ M (∨ d_x, d_x → m_x ∧ ¬n_x), the pinned solve asks for a model of
   DB^M strictly below M.

   The check skips the solve exactly where the reduct path does: when
   M ⊭ DB^M — which is M ⊭ DB, since a rule dropped from the reduct is
   classically satisfied by M and a kept one reads the same — and when
   M = ∅, which has nothing below it. *)
type checker = { db : Db.t; solver : Ddb_sat.Solver.t }

let checker db =
  let open Ddb_sat in
  let n = Db.num_vars db in
  let m x = n + x and d x = (2 * n) + x in
  let solver = Solver.create ~num_vars:(3 * n) () in
  List.iter
    (fun c ->
      Solver.add_clause solver
        (List.map (fun a -> Lit.Pos a) (Clause.head c)
        @ List.map (fun b -> Lit.Neg b) (Clause.body_pos c)
        @ List.map (fun b -> Lit.Pos (m b)) (Clause.body_neg c)))
    (Db.clauses db);
  for x = 0 to n - 1 do
    Solver.add_clause solver [ Lit.Neg x; Lit.Pos (m x) ];
    Solver.add_clause solver [ Lit.Neg (d x); Lit.Pos (m x) ];
    Solver.add_clause solver [ Lit.Neg (d x); Lit.Neg x ]
  done;
  Solver.add_clause solver (List.init n (fun x -> Lit.Pos (d x)));
  { db; solver }

let is_stable_with c m =
  let open Ddb_sat in
  let n = Db.num_vars c.db in
  Db.satisfied_by m c.db
  && (Interp.is_empty m
     ||
     match Solver.solve ~assumptions:(Minimal.pin ~offset:n n m) c.solver with
     | Solver.Unsat -> true
     | Solver.Sat -> false)

exception Found of Interp.t

let find_stable_such_that ?(pred = fun _ -> true) ?extra db =
  let c = lazy (checker db) in
  try
    Ddb_sat.Minimal.iter_minimal ?extra (Db.theory db) (fun m ->
        if pred m && is_stable_with (Lazy.force c) m then raise (Found m)
        else `Continue);
    None
  with Found m -> Some m

let infer_formula db f =
  let db = Semantics.for_query db f in
  let n = Db.num_vars db in
  let not_f = Formula.not_ f in
  let extra_clauses, _, out = Ddb_sat.Cnf.tseitin ~next_var:n not_f in
  let extra = [ out ] :: extra_clauses in
  match find_stable_such_that ~pred:(fun m -> Formula.eval m not_f) ~extra db with
  | Some _ -> false
  | None -> true

let infer_literal db l = infer_formula db (Formula.of_lit l)

let has_model db =
  if Db.is_positive_ddb db then true (* DSM = MM, and MM(DB) ≠ ∅ *)
  else Option.is_some (find_stable_such_that db)

let stable_models ?limit ?truncated db =
  let c = lazy (checker db) in
  let acc = ref [] in
  let count = ref 0 in
  Ddb_sat.Minimal.iter_minimal (Db.theory db) (fun m ->
      if is_stable_with (Lazy.force c) m then begin
        acc := m :: !acc;
        incr count
      end;
      match limit with
      | Some k when !count >= k ->
        Option.iter (fun r -> r := true) truncated;
        `Stop
      | _ -> `Continue);
  List.rev !acc

let reference_models db =
  List.filter (fun m -> is_stable db m) (Models.brute_models db)

let semantics : Semantics.t =
  {
    name = "dsm";
    long_name = "Disjunctive Stable Models (Przymusinski)";
    applicable = (fun _ -> true);
    has_model;
    infer_formula;
    infer_literal;
    reference_models;
  }

(* Engine routing: answers memoized and instrumented per semantics. *)
let semantics_in eng = Semantics.via_engine eng semantics
