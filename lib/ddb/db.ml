open Ddb_logic
open Ddb_sat

(* A propositional disjunctive database: a finite set of rule-form clauses
   over a fixed universe.  Following the paper's classification (after
   Fernandez & Minker): any database is a DNDB; without negation it is a
   DDDB; with stratified negation a DSDB.  "Positive DDB" (the Table 1
   setting) additionally excludes integrity clauses. *)

(* The canonical clause form: packed literals sorted within each clause,
   clauses sorted and deduplicated, with a hash of the whole structure.
   Syntactic permutations of the same clause set have equal forms. *)
type canonical = { form : int list list; hash : int }

type t = {
  vocab : Vocab.t;
  clauses : Clause.t list;
  num_vars : int;
  (* The canonical form, computed on first use.  Published through an
     atomic cell so domains sharing one database race benignly: every
     reader ends up with the same physical value.  [with_universe] copies
     share the cell; [make] starts a fresh one. *)
  canon : canonical option Atomic.t;
}

let make ?vocab clauses =
  let vocab =
    match vocab with Some v -> v | None -> Vocab.create ()
  in
  let max_clause_atom =
    List.fold_left (fun acc c -> max acc (Clause.max_atom c)) (-1) clauses
  in
  let num_vars = max (Vocab.size vocab) (max_clause_atom + 1) in
  { vocab; clauses; num_vars; canon = Atomic.make None }

let of_string src =
  let vocab = Vocab.create () in
  let clauses = Parse.program vocab src in
  make ~vocab clauses

let of_file path =
  let vocab = Vocab.create () in
  let clauses = Parse.program_of_file vocab path in
  make ~vocab clauses

let vocab t = t.vocab
let clauses t = t.clauses
let num_vars t = t.num_vars
let size t = List.length t.clauses

(* Pad the universe (e.g. when a query formula mentions fresh atoms: they are
   unconstrained by the database but participate in minimization). *)
let with_universe t n =
  if n <= t.num_vars then t else { t with num_vars = n }

let add_clauses t extra =
  make ~vocab:t.vocab (t.clauses @ extra) |> fun t' ->
  with_universe t' t.num_vars

(* --- classification --- *)

let has_integrity t = List.exists Clause.is_integrity t.clauses
let has_negation t = List.exists (fun c -> not (Clause.is_positive c)) t.clauses
let has_disjunction t = List.exists Clause.is_disjunctive t.clauses

let is_dddb t = not (has_negation t)

(* Table 1 setting: no negation and no integrity clauses. *)
let is_positive_ddb t = (not (has_negation t)) && not (has_integrity t)

(* Non-disjunctive (normal logic program) fragment. *)
let is_normal_program t =
  List.for_all (fun c -> List.length (Clause.head c) <= 1) t.clauses

(* --- classical semantics --- *)

let satisfied_by m t = List.for_all (Clause.satisfied_by m) t.clauses

let to_cnf t = List.map Clause.to_lits t.clauses

(* --- canonical form --- *)

let hash_form form =
  List.fold_left
    (fun h c -> List.fold_left (fun h l -> (h * 31) + l) ((h * 37) + 1) c)
    17 form
  land max_int

let compute_canonical t =
  let clause lits =
    List.sort_uniq Int.compare (List.map Cnf.plit_of_lit lits)
  in
  let form =
    List.sort_uniq (List.compare Int.compare) (List.map clause (to_cnf t))
  in
  { form; hash = hash_form form }

let canonical t =
  match Atomic.get t.canon with
  | Some c -> c
  | None ->
    ignore (Atomic.compare_and_set t.canon None (Some (compute_canonical t)));
    Option.get (Atomic.get t.canon)

let canonical_form c = c.form
let canonical_hash c = c.hash

let canonical_equal a b =
  a == b
  || a.hash = b.hash && List.equal (List.equal Int.equal) a.form b.form

let theory t = Minimal.theory ~num_vars:t.num_vars (to_cnf t)

let solver t = Solver.of_clauses ~num_vars:t.num_vars (to_cnf t)

let atoms t = List.init t.num_vars Fun.id

let atoms_interp t = Interp.full t.num_vars

(* Atoms actually occurring in some clause (the universe may be larger). *)
let occurring_atoms t =
  Interp.of_list t.num_vars (List.concat_map Clause.atoms t.clauses)

let pp ppf t =
  Fmt.pf ppf "@[<v>%a@]"
    (Fmt.list ~sep:Fmt.cut (Clause.pp ~vocab:t.vocab))
    t.clauses

let to_string t = Fmt.str "%a" pp t
