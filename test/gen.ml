open Ddb_logic
open Ddb_db

(* Shared random-instance generators for the test suites.  All generators
   are driven by an explicit [Random.State.t] so qcheck failures are
   reproducible from the printed seed. *)

let atom rand num_vars = Random.State.int rand (max 1 num_vars)

let atoms rand num_vars ~max_count =
  let count = Random.State.int rand (max_count + 1) in
  List.init count (fun _ -> atom rand num_vars)

let clause rand ~num_vars ~allow_neg ~allow_integrity =
  let rec try_once () =
    let head_count =
      if allow_integrity && Random.State.int rand 6 = 0 then 0
      else 1 + Random.State.int rand 2
    in
    let head = List.init head_count (fun _ -> atom rand num_vars) in
    let pos = atoms rand num_vars ~max_count:2 in
    let neg = if allow_neg then atoms rand num_vars ~max_count:2 else [] in
    if head = [] && pos = [] && neg = [] then try_once ()
    else Clause.make ~head ~pos ~neg
  in
  try_once ()

let db rand ~num_vars ~num_clauses ~allow_neg ~allow_integrity =
  let vocab = Vocab.of_size num_vars in
  Db.make ~vocab
    (List.init num_clauses (fun _ ->
         clause rand ~num_vars ~allow_neg ~allow_integrity))

(* Table 1 fragment: no negation, no integrity clauses. *)
let positive_db rand ~num_vars ~num_clauses =
  db rand ~num_vars ~num_clauses ~allow_neg:false ~allow_integrity:false

(* DDDB with integrity clauses (Table 2, negation-free rows). *)
let dddb_with_integrity rand ~num_vars ~num_clauses =
  db rand ~num_vars ~num_clauses ~allow_neg:false ~allow_integrity:true

(* Definite-Horn database: positive, every non-integrity clause has exactly
   one head atom; positive integrity clauses optionally allowed.  The
   fragment behind the Table 1/2 least-model fast paths. *)
let definite_db ?(allow_integrity = true) rand ~num_vars ~num_clauses =
  let clause () =
    if allow_integrity && Random.State.int rand 6 = 0 then
      let k = 1 + Random.State.int rand 2 in
      Clause.make ~head:[]
        ~pos:(List.init k (fun _ -> atom rand num_vars))
        ~neg:[]
    else
      Clause.make
        ~head:[ atom rand num_vars ]
        ~pos:(atoms rand num_vars ~max_count:2)
        ~neg:[]
  in
  let vocab = Vocab.of_size num_vars in
  Db.make ~vocab (List.init num_clauses (fun _ -> clause ()))

(* General DNDB. *)
let dndb rand ~num_vars ~num_clauses =
  db rand ~num_vars ~num_clauses ~allow_neg:true ~allow_integrity:true

(* Stratified database: assign atoms to [layers] layers; negative body atoms
   are drawn from strictly lower layers, positive body atoms and heads from
   the clause's layer or below (heads all from the same layer). *)
let stratified_db rand ~num_vars ~num_clauses ~layers =
  let layer_of = Array.init num_vars (fun _ -> Random.State.int rand layers) in
  let atoms_at_most l =
    List.filter (fun x -> layer_of.(x) <= l) (List.init num_vars Fun.id)
  in
  let atoms_below l =
    List.filter (fun x -> layer_of.(x) < l) (List.init num_vars Fun.id)
  in
  let atoms_exactly l =
    List.filter (fun x -> layer_of.(x) = l) (List.init num_vars Fun.id)
  in
  let pick pool = List.nth pool (Random.State.int rand (List.length pool)) in
  let vocab = Vocab.of_size num_vars in
  let rec make_clause () =
    let l = Random.State.int rand layers in
    let heads = atoms_exactly l in
    if heads = [] then make_clause ()
    else begin
      let head =
        List.init (1 + Random.State.int rand 2) (fun _ -> pick heads)
      in
      let pos_pool = atoms_at_most l in
      let pos =
        List.init (Random.State.int rand 3) (fun _ -> pick pos_pool)
      in
      let neg_pool = atoms_below l in
      let neg =
        if neg_pool = [] then []
        else List.init (Random.State.int rand 2) (fun _ -> pick neg_pool)
      in
      Clause.make ~head ~pos ~neg
    end
  in
  Db.make ~vocab (List.init num_clauses (fun _ -> make_clause ()))

(* Four workload families spanning the fast-path cells, picked by
   [seed mod 4]: definite-Horn (with integrity), plain positive, stratified
   normal, and general DNDBs (all fast-path misses — exercises the
   fall-through). *)
let family_db seed rand ~num_vars =
  match seed mod 4 with
  | 0 -> definite_db rand ~num_vars ~num_clauses:(2 * num_vars)
  | 1 -> positive_db rand ~num_vars ~num_clauses:(2 * num_vars)
  | 2 -> stratified_db rand ~num_vars ~num_clauses:(2 * num_vars) ~layers:3
  | _ -> dndb rand ~num_vars ~num_clauses:(2 * num_vars)

let random_partition rand num_vars =
  let buckets = Array.init num_vars (fun _ -> Random.State.int rand 3) in
  let pick k =
    List.filter (fun v -> buckets.(v) = k) (List.init num_vars Fun.id)
  in
  Partition.of_lists num_vars ~p:(pick 0) ~q:(pick 1) ~z:(pick 2)

let random_formula rand num_vars ~depth =
  let rec go depth =
    if depth = 0 || Random.State.int rand 4 = 0 then
      Formula.Atom (atom rand num_vars)
    else
      match Random.State.int rand 5 with
      | 0 -> Formula.And (go (depth - 1), go (depth - 1))
      | 1 -> Formula.Or (go (depth - 1), go (depth - 1))
      | 2 -> Formula.Not (go (depth - 1))
      | 3 -> Formula.Imp (go (depth - 1), go (depth - 1))
      | _ -> Formula.Iff (go (depth - 1), go (depth - 1))
  in
  go depth

(* Property-test iteration count.  The default keeps `dune runtest` fast;
   the @slowtest alias re-runs the suite with DDB_QCHECK_COUNT raised. *)
let qcheck_count default =
  match Sys.getenv_opt "DDB_QCHECK_COUNT" with
  | Some s -> (
    match int_of_string_opt s with Some n when n > 0 -> n | _ -> default)
  | None -> default

let interp_list_equal a b =
  let a = List.sort Interp.compare a and b = List.sort Interp.compare b in
  List.length a = List.length b && List.for_all2 Interp.equal a b

(* A fresh ablation engine: no memo, no fast paths — every query runs the
   generic oracle procedures on fresh solvers. *)
let ablation () = Ddb_engine.Engine.create ~cache:false ~fastpath:false ()

(* Every registry semantics on the engine, in registry order. *)
let records eng = List.map (Ddb_core.Registry.in_exn eng) Ddb_core.Registry.names

(* Brute-force reference answers of a registry record, [None] where its
   reference models are not the entailment base: PDSM's are three-valued
   (it has laws of its own). *)
let reference_has_model (s : Ddb_core.Semantics.t) db =
  let open Ddb_core.Semantics in
  if s.name = "pdsm" then None
  else Some (reference_has_model s.reference_models db)

let reference_infer (s : Ddb_core.Semantics.t) db f =
  let open Ddb_core.Semantics in
  if s.name = "pdsm" then None
  else Some (reference_infer s.reference_models (for_query db f) f)
