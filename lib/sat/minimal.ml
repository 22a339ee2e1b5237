open Ddb_logic

(* Minimal models with respect to the (P;Z)-preorder, built from SAT oracle
   calls.  This module is the engine room of GCWA/EGCWA/CCWA/ECWA/CIRC and of
   the stable-model check: a minimality test is one SAT call, and searching
   for a minimal model with a side condition is the guess-and-check loop of
   the paper's Sigma-2 upper bounds.

   A theory is a plain CNF over a fixed universe; databases are translated by
   the ddb layer. *)

type theory = { num_vars : int; clauses : Lit.t list list }

let theory ~num_vars clauses = { num_vars; clauses }

let solver_of theory = Solver.of_clauses ~num_vars:theory.num_vars theory.clauses

(* Assumptions pinning the Q-section of [m] and forbidding new P-atoms:
   the shared part of every "is there something strictly below m?" query. *)
let cone_assumptions part m =
  let q_pins =
    Interp.fold
      (fun x acc ->
        (if Interp.mem m x then Lit.Pos x else Lit.Neg x) :: acc)
      (Partition.q part) []
  in
  let p_caps =
    Interp.fold
      (fun x acc -> if Interp.mem m x then acc else Lit.Neg x :: acc)
      (Partition.p part) []
  in
  q_pins @ p_caps

(* Is there a model strictly below [m] in the (P;Z)-preorder?  One SAT call
   on: theory ∧ (Q = m∩Q) ∧ (P ⊆ m∩P) ∧ (P ≠ m∩P).  The last conjunct is a
   disjunction over P∩m, added as a clause guarded by a fresh selector that
   the query assumes and then retires, so the solver stays reusable for
   further queries on other models. *)
let find_below solver part m =
  let p_in_m = Interp.to_list (Interp.inter (Partition.p part) m) in
  match p_in_m with
  | [] -> None (* nothing to shrink: m is minimal *)
  | _ -> (
    let sel = Solver.new_var solver in
    Solver.add_clause solver
      (Lit.Neg sel :: List.map (fun x -> Lit.Neg x) p_in_m);
    let assumptions = Lit.Pos sel :: cone_assumptions part m in
    match Solver.solve ~assumptions solver with
    | Solver.Unsat ->
      (* Retire the selector so the clause can never fire again. *)
      Solver.add_clause solver [ Lit.Neg sel ];
      None
    | Solver.Sat ->
      let below = Solver.model ~universe:(Interp.universe_size m) solver in
      Solver.add_clause solver [ Lit.Neg sel ];
      Some below)

let is_minimal_with solver part m = Option.is_none (find_below solver part m)

(* Assumptions fixing solver variable [offset + x] to the value of atom x in
   [m], for x < n.  The check solvers of CIRC, PERF and DSM encode their
   test once over a copy of the universe and pin it per candidate with
   these, so each check is one solve that adds no clause. *)
let pin ?(offset = 0) n m =
  List.init n (fun x ->
      if Interp.mem m x then Lit.Pos (offset + x) else Lit.Neg (offset + x))

let is_minimal theory part m = is_minimal_with (solver_of theory) part m

(* Descend from a model to a minimal model below it.  Terminates because
   |P ∩ m| strictly decreases. *)
let minimize_with solver part m =
  let rec go m =
    match find_below solver part m with None -> m | Some m' -> go m'
  in
  go m

let minimize theory part m = minimize_with (solver_of theory) part m

(* Some minimal model of the theory, if consistent. *)
let find_minimal theory part =
  let solver = solver_of theory in
  match Solver.solve solver with
  | Solver.Unsat -> None
  | Solver.Sat ->
    let m = Solver.model ~universe:theory.num_vars solver in
    Some (minimize_with solver part m)

(* Blocking clause excluding every interpretation whose Q-section equals m's
   and whose P-section contains m's.  Sound for minimal-model search: if m is
   not minimal, nothing in that cone is minimal either. *)
let cone_blocking part m =
  let block_p =
    Interp.fold
      (fun x acc -> if Interp.mem m x then Lit.Neg x :: acc else acc)
      (Partition.p part) []
  in
  let block_q =
    Interp.fold
      (fun x acc ->
        (if Interp.mem m x then Lit.Neg x else Lit.Pos x) :: acc)
      (Partition.q part) []
  in
  block_p @ block_q

(* Guess-and-check search for (P;Z)-minimal models of the theory that
   satisfy a growing set of constraint clauses (which may mention auxiliary
   atoms beyond the universe, e.g. a Tseitin encoding of ¬F; auxiliaries
   float like Z-atoms).  This is the Σ₂ᵖ loop of the paper's upper bounds,
   and every minimal-model search below is one.  Three solvers live as long
   as the search: candidates (theory ∧ constraints ∧ cone blocks), a
   constrained minimizer (theory ∧ constraints) and a plain checker (theory
   alone, built on the first check).  Each [next] step is

     candidate <- SAT(theory ∧ constraints ∧ blocked);
     m̂ <- minimize candidate within (theory ∧ constraints);
     if m̂ is (P;Z)-minimal for theory alone: answer;
     block the cone of m̂ either way.

   Soundness of the cone block: anything in the cone of m̂ is ≥ m̂, a theory
   model, so it is theory-minimal only if it agrees with m̂ on P and Q.  If
   m̂ is not minimal, nothing in its cone is; if m̂ was an answer, the block
   drops only models with its P- and Q-section, so a search reports one
   model per such section.  This holds whatever the constraints are, so
   blocks carry over as constraints are added.  Completeness: an answer M
   inside cone(m̂) agrees with m̂ on P and Q, so m̂ — a model of the
   constraints of its step, since descents stay inside them — was minimal
   and was reported with M's section.  Each step blocks its own candidate,
   so the search terminates.  Without constraints every descent ends in a
   minimal model and the plain check is skipped. *)
type search = {
  part : Partition.t;
  universe : int;
  candidates : Solver.t;
  minimizer : Solver.t;
  checker : Solver.t Lazy.t;
  mutable constrained : bool;
}

let constrain s clause =
  Solver.add_clause s.candidates clause;
  Solver.add_clause s.minimizer clause;
  s.constrained <- true

let search ?(extra = []) theory part =
  let s =
    {
      part;
      universe = theory.num_vars;
      candidates = solver_of theory;
      minimizer = solver_of theory;
      checker = lazy (solver_of theory);
      constrained = false;
    }
  in
  List.iter (constrain s) extra;
  s

let rec next s =
  match Solver.solve s.candidates with
  | Solver.Unsat -> None
  | Solver.Sat ->
    let m = Solver.model ~universe:s.universe s.candidates in
    let m_hat = minimize_with s.minimizer s.part m in
    let minimal =
      (not s.constrained)
      || is_minimal_with (Lazy.force s.checker) s.part m_hat
    in
    Solver.add_clause s.candidates (cone_blocking s.part m_hat);
    if minimal then Some m_hat else next s

(* Some M ∈ MM(theory; P; Z) additionally satisfying the [extra] clauses. *)
let find_minimal_such_that ?extra theory part = next (search ?extra theory part)

(* The support set S = {x ∈ P : x true in some (P;Z)-minimal model}, grown
   by one search: each answer is a minimal model with a P-atom outside S.
   The round constraint "some P-atom outside S is true" only strengthens as
   S grows, so it is added permanently, and the cone blocks of earlier
   rounds stay sound.  At most |P| + 1 answers are asked for, usually far
   fewer (one answer can add many atoms). *)
let support_set theory part =
  let p = Partition.p part in
  let s = search theory part in
  let rec grow supp =
    let missing = Interp.diff p supp in
    if Interp.is_empty missing then supp
    else begin
      constrain s (Interp.fold (fun x acc -> Lit.Pos x :: acc) missing []);
      match next s with
      | None -> supp
      | Some m -> grow (Interp.union supp (Interp.inter m p))
    end
  in
  grow (Interp.empty theory.num_vars)

(* All minimal models under the total partition P = V (the MM(DB) case).
   Two distinct ⊆-minimal models are incomparable, so blocking the superset
   cone of each found model never removes an unseen minimal model. *)
let all_minimal ?limit ?truncated theory =
  let s = search theory (Partition.minimize_all theory.num_vars) in
  let rec go acc k =
    if k = 0 then begin
      Option.iter (fun r -> r := true) truncated;
      List.rev acc
    end
    else
      match next s with
      | None -> List.rev acc
      | Some m ->
        Ddb_budget.Budget.on_model ();
        go (m :: acc) (k - 1)
  in
  go [] (Option.value limit ~default:(-1))

(* Lazy variant of [all_minimal]: feed the ⊆-minimal models of the theory
   that satisfy [extra] to a callback until it stops. *)
let iter_minimal ?extra theory f =
  let s = search ?extra theory (Partition.minimize_all theory.num_vars) in
  let rec go () =
    match next s with
    | None -> ()
    | Some m -> ( match f m with `Stop -> () | `Continue -> go ())
  in
  go ()

(* Reference implementation over explicit model lists (for tests). *)

let minimal_of_models part models =
  List.filter
    (fun m -> not (List.exists (fun m' -> Partition.lt part m' m) models))
    models
