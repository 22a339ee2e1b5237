open Ddb_logic
open Ddb_sat

(* The priority relation of the Perfect Model Semantics (Przymusinski).

   From each clause  a1 v ... v an <- b1 ^ ... ^ bk ^ ¬c1 ^ ... ^ ¬cm:
     (i)   ai <  cj   (negative premises have strictly higher priority),
     (ii)  ai <= bj   (positive premises have priority at least as high),
     (iii) ai ~  aj   (head atoms share their priority).
   The relations close transitively; x < y holds when some chain from x to y
   uses at least one strict step.

   A model N is *preferable* to a model M (N ≺ M) iff N ≠ M and for every
   x ∈ N∖M there is y ∈ M∖N with x < y.  M is perfect iff M is a model and
   no model is preferable to it.  Any proper submodel is vacuously
   preferable, so perfect models are minimal models. *)

type t = {
  num_vars : int;
  lt : Interp.t array; (* lt.(x) = { y : x < y } *)
}

let compute db =
  let n = Db.num_vars db in
  (* Weighted edges x -> y, weight 1 for strict (priority(y) > priority(x)
     reachable), 0 for non-strict. *)
  let weak = Array.make (max n 1) [] in
  let strict = Array.make (max n 1) [] in
  let add_weak x y = if x <> y then weak.(x) <- y :: weak.(x) in
  let add_strict x y = strict.(x) <- y :: strict.(x) in
  List.iter
    (fun c ->
      let head = Clause.head c in
      List.iter
        (fun a ->
          List.iter (fun b -> add_weak a b) (Clause.body_pos c);
          List.iter (fun c' -> add_strict a c') (Clause.body_neg c);
          List.iter
            (fun a' ->
              add_weak a a';
              add_weak a' a)
            head)
        head)
    (Db.clauses db);
  (* For each x: BFS over states (node, strict-step-seen). *)
  let lt =
    Array.init (max n 1) (fun x ->
        if x >= n then Interp.empty (max n 1)
        else begin
          let visited = Array.make (2 * n) false in
          let queue = Queue.create () in
          let push node s =
            let idx = (2 * node) + if s then 1 else 0 in
            if not visited.(idx) then begin
              visited.(idx) <- true;
              Queue.add (node, s) queue
            end
          in
          push x false;
          while not (Queue.is_empty queue) do
            let node, s = Queue.pop queue in
            List.iter (fun y -> push y s) weak.(node);
            List.iter (fun y -> push y true) strict.(node)
          done;
          Interp.of_pred n (fun y -> visited.((2 * y) + 1))
        end)
  in
  { num_vars = n; lt }

let lt t x y = Interp.mem t.lt.(x) y

let higher t x = t.lt.(x)

(* The perfectness checker: one solver per database that answers "is some
   model N preferable to M?" for any M with one SAT call and no new clause.
   Variables 0..n-1 are the atoms of N, so the database clauses go in as
   they are; the shadow atom m_x = n + x is pinned to M by the assumptions
   of each call, and d_y = 2n + y marks y ∈ M∖N.  Clauses:
     N |= DB;   d_y → m_y ∧ ¬n_y;   ∨ d_y;
     for every x:  ¬n_x ∨ m_x ∨ ∨ { d_y : x < y },
   the last saying that each x ∈ N∖M has some y ∈ M∖N above it.  Under
   that constraint N ≠ M is M∖N ≠ ∅ (were M∖N empty, N∖M would have to be
   too), so ∨ d_y states N ≠ M without a difference variable per atom. *)
type checker = { universe : int; solver : Solver.t }

let checker db =
  let t = compute db in
  let n = Db.num_vars db in
  let m x = n + x and d y = (2 * n) + y in
  let solver = Solver.create ~num_vars:(3 * n) () in
  List.iter (Solver.add_clause solver) (Db.to_cnf db);
  for x = 0 to n - 1 do
    Solver.add_clause solver [ Lit.Neg (d x); Lit.Pos (m x) ];
    Solver.add_clause solver [ Lit.Neg (d x); Lit.Neg x ];
    Solver.add_clause solver
      (Lit.Neg x :: Lit.Pos (m x)
      :: Interp.fold (fun y acc -> Lit.Pos (d y) :: acc) t.lt.(x) [])
  done;
  Solver.add_clause solver (List.init n (fun y -> Lit.Pos (d y)));
  { universe = n; solver }

let preferable_model c m =
  let n = c.universe in
  match Solver.solve ~assumptions:(Minimal.pin ~offset:n n m) c.solver with
  | Solver.Unsat -> None
  | Solver.Sat -> Some (Solver.model ~universe:n c.solver)

let is_perfect db m =
  Db.satisfied_by m db && Option.is_none (preferable_model (checker db) m)

(* Reference check on explicit model lists (small universes). *)
let preferable t ~candidate ~over =
  (not (Interp.equal candidate over))
  && Interp.for_all
       (fun x ->
         Interp.exists (fun y -> lt t x y) (Interp.diff over candidate))
       (Interp.diff candidate over)

let brute_perfect_models db =
  let t = compute db in
  let models = Models.brute_models db in
  List.filter
    (fun m ->
      not
        (List.exists (fun n -> preferable t ~candidate:n ~over:m) models))
    models

(* All perfect models via minimal-model enumeration + the SAT check
   (perfect ⊆ minimal).  The checker is built on the first candidate. *)
let perfect_models ?limit ?truncated db =
  let c = lazy (checker db) in
  List.filter
    (fun m -> Option.is_none (preferable_model (Lazy.force c) m))
    (Models.minimal_models ?limit ?truncated db)
