open Ddb_logic
open Ddb_db

(* The uniform face of a disjunctive database semantics, as studied by the
   paper: a (possibly empty) set of intended models inducing the three
   decision problems — literal inference, formula inference, model
   existence.

   Every semantics record carries two evaluators:
     - the *oracle procedures* (the three decision problems): realize the
       paper's upper-bound algorithm by SAT / minimality-oracle calls, on
       the memoizing engine the record was built for;
     - the *reference models*: explicit model enumeration over 2^V (or
       3^V), used as ground truth on small universes by the tests and the
       engine-ablation bench. *)

type t = {
  name : string;
  long_name : string;
  (* Which databases the semantics is defined for (e.g. DDR needs a DDDB,
     ICWA a stratified database). *)
  applicable : Db.t -> bool;
  has_model : Db.t -> bool;
  infer_formula : Db.t -> Formula.t -> bool;
  infer_literal : Db.t -> Lit.t -> bool;
  reference_models : Db.t -> Interp.t list;
}

let formula_of_lit = Formula.of_lit

(* Default literal inference: formula inference on a literal. *)
let lift_literal infer_formula db l = infer_formula db (formula_of_lit l)

(* Reference-engine inference: truth in every explicitly enumerated model. *)
let reference_infer models db f =
  List.for_all (fun m -> Formula.eval m f) (models db)

let reference_has_model models db = models db <> []

(* Pad the database universe so that query atoms beyond it are legal. *)
let for_query db f =
  Db.with_universe db (max (Db.num_vars db) (Formula.max_atom f + 1))

(* Route a semantics through the memoizing oracle engine without
   decomposing its decision procedure: every decision problem is scoped
   (instrumented per semantics) and its answer memoized under the
   database's canonical key; a cache-disabled engine runs the procedure on
   every call.  This is the engine path of PWS, CIRC, ICWA, PERF, DSM and
   PDSM.  The closed-world family (CWA, GCWA, CCWA, DDR, EGCWA, ECWA) has
   no procedure outside the engine: its [semantics_in] records ask each
   oracle query of the engine directly. *)
let via_engine eng (s : t) : t =
  let open Ddb_engine in
  {
    s with
    has_model =
      (fun db ->
        Engine.scoped eng s.name (fun () ->
            Engine.cached_bool eng ~sem:s.name ~op:"exists" db (fun () ->
                s.has_model db)));
    infer_formula =
      (fun db f ->
        Engine.scoped eng s.name (fun () ->
            Engine.cached_bool eng ~sem:s.name ~op:"formula" ~formula:f db
              (fun () -> s.infer_formula db f)));
    infer_literal =
      (fun db l ->
        Engine.scoped eng s.name (fun () ->
            Engine.cached_bool eng ~sem:s.name ~op:"literal"
              ~formula:(formula_of_lit l) db (fun () -> s.infer_literal db l)));
  }
