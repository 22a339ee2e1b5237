open Ddb_logic
open Ddb_sat
open Ddb_db

(* ICWA — the Iterated CWA of Gelfond, Przymusinska & Przymusinski for
   stratified databases: iterated application of ECWA along the strata,
   introduced to capture the perfect-model semantics under stratified
   negation.

   We implement the paper's model-theoretic characterization: with
   stratification S = <S1,...,Sr>, negative body literals moved into heads
   (DB' = shift(DB), a positive database) and P_i = P ∩ S_i,

     ICWA_{P1 > ... > Pr; Z}(DB)
        =  ⋂_{i=1..r}  ECWA_{P_i ; P_{i+1} ∪ ... ∪ P_r ∪ Z}(DB')
        =  ⋂_{i=1..r}  MM(DB'; P_i; P_{i+1} ∪ ... ∪ P_r ∪ Z).

   Stratifiability guarantees consistency for any partition (the paper's
   O(1) existence cell — given a stratification, the answer is "yes"
   without touching the clauses). *)

type instance = {
  db : Db.t; (* original database *)
  shifted : Db.t; (* DB' = negation moved into heads *)
  parts : Partition.t list; (* one ⟨P_i;Q_i;Z_i⟩ per stratum *)
}

let prepare db part =
  match Stratify.compute db with
  | None -> None
  | Some strat ->
    let n = Db.num_vars db in
    let shifted =
      Db.with_universe
        (Db.make ~vocab:(Db.vocab db)
           (List.map Clause.shift_negation (Db.clauses db)))
        n
    in
    let strata = Stratify.strata strat in
    let p = Partition.p part and z = Partition.z part in
    let r = List.length strata in
    let parts =
      List.mapi
        (fun i s_i ->
          let p_i = Interp.inter p s_i in
          let later =
            List.filteri (fun j _ -> j > i) strata
            |> List.fold_left
                 (fun acc s -> Interp.union acc (Interp.inter p s))
                 (Interp.empty n)
          in
          let z_i = Interp.union later z in
          let q_i = Interp.diff (Interp.full n) (Interp.union p_i z_i) in
          Partition.make ~p:p_i ~q:q_i ~z:z_i)
        strata
    in
    ignore r;
    Some { db; shifted; parts }

let is_icwa_model inst m =
  Db.satisfied_by m inst.shifted
  && List.for_all
       (fun part_i -> Minimal.is_minimal (Db.theory inst.shifted) part_i m)
       inst.parts

(* Counterexample search for inference: find M in the ECWA intersection with
   [pred m]; when a candidate fails stratum i's minimality, its (P_i;Z_i)
   cone is blocked (sound: the whole cone is non-minimal for stratum i). *)
let find_icwa_model_such_that ?(extra = []) ?(pred = fun _ -> true) inst =
  let n = Db.num_vars inst.shifted in
  let candidate = Db.solver inst.shifted in
  List.iter (Solver.add_clause candidate) extra;
  let checkers =
    List.map (fun part_i -> (part_i, Minimal.solver_of (Db.theory inst.shifted)))
      inst.parts
  in
  let rec loop () =
    match Solver.solve candidate with
    | Solver.Unsat -> None
    | Solver.Sat ->
      let m = Solver.model ~universe:n candidate in
      let failing =
        List.find_opt
          (fun (part_i, solver) -> not (Minimal.is_minimal_with solver part_i m))
          checkers
      in
      (match failing with
      | None -> if pred m then Some m else begin
          (* m is an ICWA model but fails the side condition: block it
             exactly. *)
          Solver.add_clause candidate (Enum.blocking_clause ~universe:n m);
          loop ()
        end
      | Some (part_i, _) ->
        Solver.add_clause candidate (Minimal.cone_blocking part_i m);
        loop ())
  in
  loop ()

let infer_formula db part f =
  if Formula.max_atom f >= Partition.universe_size part then
    invalid_arg "Icwa.infer_formula: query atom outside the partition";
  match prepare db part with
  | None -> invalid_arg "Icwa.infer_formula: database is not stratified"
  | Some inst ->
    let n = Db.num_vars inst.shifted in
    let not_f = Formula.not_ f in
    let extra_clauses, _, out = Cnf.tseitin ~next_var:n not_f in
    let extra = [ out ] :: extra_clauses in
    (match
       find_icwa_model_such_that ~extra ~pred:(fun m -> Formula.eval m not_f)
         inst
     with
    | Some _ -> false
    | None -> true)

let infer_literal db part l = infer_formula db part (Formula.of_lit l)

(* The paper: "Stratifiability asserts consistency; if DB is stratified by
   S, then ICWA is consistent for any ⟨P;Q;Z⟩" — an O(1) answer given the
   stratification, which holds when there are no integrity clauses.  An
   integrity clause can exclude every model, and then ICWA has none.  In
   general ICWA has a model iff DB has one: DB' is classically equivalent
   to DB, and among the models of DB' agreeing with some model on Q, one
   that is lexicographically minimal on P1, ..., Pr lies in every
   stratum's ECWA set.  So existence with integrity clauses is one
   consistency call, asked of [sat]. *)
let has_model_with sat db =
  Stratify.is_stratified db && ((not (Db.has_integrity db)) || sat db)

let has_model = has_model_with Models.has_model

let reference_models db part =
  match prepare db part with
  | None -> invalid_arg "Icwa.reference_models: database is not stratified"
  | Some inst ->
    List.filter (fun m -> is_icwa_model inst m)
      (Models.brute_models inst.shifted)

let semantics : Semantics.t =
  {
    name = "icwa";
    long_name = "Iterated CWA (Gelfond, Przymusinska & Przymusinski)";
    applicable = Stratify.is_stratified;
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

(* Engine routing: answers memoized and instrumented per semantics; the
   consistency call of existence goes to the engine's [sat] oracle, so a
   warm engine answers it from the memo. *)
let semantics_in eng =
  Semantics.via_engine eng
    { semantics with has_model = has_model_with (Ddb_engine.Engine.sat eng) }
