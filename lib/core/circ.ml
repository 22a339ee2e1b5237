open Ddb_logic
open Ddb_sat
open Ddb_db

(* CIRC — propositional circumscription, implemented independently of the
   minimal-model machinery, straight from Lifschitz's schema

     Circ(DB; P; Z) = DB[P;Z] ∧ ¬∃P'Z' ( DB[P';Z'] ∧ P' < P )

   instantiated propositionally with a primed copy of the universe:
   variable x has id x, its primed copy id n + x.  Q-atoms are equated with
   their copies, P'-atoms are bounded by their originals, and a selector
   disjunction asserts P' ≠ P.  M is a model of the circumscription iff M
   satisfies DB and the schema query is unsatisfiable with the original
   variables pinned to M.

   The paper uses CIRC ≡ ECWA (Lifschitz); here the equivalence is a tested
   property, not an assumption — {!Ecwa} goes through assumption-based
   minimality checks, this module through the syntactic schema. *)

let prime n x = n + x

(* Solver holding DB ∧ DB[P';Z'] ∧ (Q' = Q) ∧ (P' ≤ P) ∧ (P' ≠ P).
   The P' ≠ P disjunction uses difference selectors d_x → x ∧ ¬x'. *)
let schema_solver db part =
  let n = Db.num_vars db in
  let solver = Solver.create ~num_vars:(2 * n) () in
  Solver.ensure_vars solver (2 * n);
  (* original database *)
  List.iter (Solver.add_clause solver) (Db.to_cnf db);
  (* primed copy *)
  List.iter
    (fun clause ->
      Solver.add_clause solver
        (List.map
           (function
             | Lit.Pos x -> Lit.Pos (prime n x)
             | Lit.Neg x -> Lit.Neg (prime n x))
           clause))
    (Db.to_cnf db);
  (* fixed atoms keep their value in the copy *)
  Interp.iter
    (fun q ->
      Solver.add_clause solver [ Lit.Neg q; Lit.Pos (prime n q) ];
      Solver.add_clause solver [ Lit.Pos q; Lit.Neg (prime n q) ])
    (Partition.q part);
  (* the copy only shrinks the minimized atoms *)
  Interp.iter
    (fun p -> Solver.add_clause solver [ Lit.Neg (prime n p); Lit.Pos p ])
    (Partition.p part);
  (* ... strictly: some p is dropped *)
  let selectors =
    Interp.fold
      (fun p acc ->
        let d = Solver.new_var solver in
        Solver.add_clause solver [ Lit.Neg d; Lit.Pos p ];
        Solver.add_clause solver [ Lit.Neg d; Lit.Neg (prime n p) ];
        Lit.Pos d :: acc)
      (Partition.p part) []
  in
  Solver.add_clause solver selectors;
  solver

(* A model strictly below [m] found through the schema, if any. *)
let find_below_schema db schema m =
  let n = Db.num_vars db in
  match Solver.solve ~assumptions:(Minimal.pin n m) schema with
  | Solver.Unsat -> None
  | Solver.Sat ->
    let full = Solver.model ~universe:(2 * n) schema in
    Some (Interp.of_pred n (fun x -> Interp.mem full (prime n x)))

let is_circ_model ?schema db part m =
  let schema = match schema with Some s -> s | None -> schema_solver db part in
  Db.satisfied_by m db && Option.is_none (find_below_schema db schema m)

(* CIRC_{P;Z}(DB) ⊨ F by counterexample search, mirroring the minimality
   loop but powered exclusively by the schema. *)
let infer_formula db part f =
  if Formula.max_atom f >= Partition.universe_size part then
    invalid_arg "Circ.infer_formula: query atom outside the partition";
  let n = Db.num_vars db in
  let schema = schema_solver db part in
  let candidate = Db.solver db in
  Solver.ensure_vars candidate (2 * n); (* keep clear of primed ids *)
  let _ = Solver.add_formula candidate ~next_var:(2 * n) (Formula.not_ f) in
  let rec descend m =
    match find_below_schema db schema m with
    | None -> m
    | Some m' -> descend m'
  in
  let rec loop () =
    match Solver.solve candidate with
    | Solver.Unsat -> true
    | Solver.Sat ->
      let m = Solver.model ~universe:n candidate in
      let m_circ = descend m in
      if Interp.equal m_circ m then false (* circ model refuting F *)
      else if not (Formula.eval m_circ f) then false
      else begin
        Solver.add_clause candidate (Minimal.cone_blocking part m);
        loop ()
      end
  in
  loop ()

let infer_literal db part l = infer_formula db part (Formula.of_lit l)

let has_model db =
  if Db.is_positive_ddb db then true else Models.has_model db

let reference_models db part =
  let schema = schema_solver db part in
  List.filter (fun m -> is_circ_model ~schema db part m) (Models.brute_models db)

let semantics : Semantics.t =
  {
    name = "circ";
    long_name = "Circumscription (McCarthy / Lifschitz schema)";
    applicable = (fun _ -> true);
    has_model;
    infer_formula =
      (fun db f ->
        let db = Semantics.for_query db f in
        infer_formula db (Partition.minimize_all (Db.num_vars db)) f);
    infer_literal =
      (fun db l ->
        let db = Semantics.for_query db (Formula.of_lit l) in
        infer_literal db (Partition.minimize_all (Db.num_vars db)) l);
    reference_models =
      (fun db -> reference_models db (Partition.minimize_all (Db.num_vars db)));
  }

(* Engine routing: answers memoized and instrumented per semantics. *)
let semantics_in eng = Semantics.via_engine eng semantics
