open Ddb_logic
open Ddb_sat
open Ddb_db

(* The paper's P^Σ₂ᵖ[O(log n)] upper-bound algorithms for formula inference
   under GCWA and CCWA (Eiter & Gottlob's binary-search method from [7]).

   The object of interest is the support set
       S = { x ∈ P : x true in some (P;Z)-minimal model },
   because  CCWA(DB) ⊨ F  iff  DB ∪ { ¬x : x ∈ P∖S } ⊨ F.

   Computing S outright takes |P| Σ₂ᵖ-oracle queries (one per atom).  The
   binary-search algorithm needs only O(log |P|):
     1. with queries  Q(k) = "do k distinct P-atoms have minimal-model
        witnesses?"  binary-search K = |S|  (⌈log₂(|P|+1)⌉ queries);
     2. one final query: "are there K witnessed atoms W together with a
        model of DB ∪ {¬x : x ∈ P∖W} violating F?" — any witnessed W of
        size K must equal S, so this decides the complement of entailment.

   The oracle is realized by the minimal-model engine; being an *oracle*,
   its internal work is unbounded and only invocations are counted
   (Stats.bump_sigma2), which is what the complexity harness measures.
   [entails_linear] is the |P|-query variant for the ablation bench. *)

type report = { answer : bool; sigma2_queries : int; p_size : int }

(* One Σ₂ᵖ oracle holding the (lazily computed, cached) support set, both
   realized by the engine: repeated inference on the same database pays for
   the support set once.  Every [query_at_least]/[query_final] invocation
   counts as one oracle call — the Σ₂ᵖ *query count* does not depend on
   the engine, only the oracle's internal work is shared, which is exactly
   what the complexity model allows. *)
let make_oracle eng db part =
  let support = lazy (Ddb_engine.Engine.support_set eng db part) in
  let query_at_least k =
    Stats.bump_sigma2 ();
    Interp.cardinal (Lazy.force support) >= k
  in
  let query_final f =
    Stats.bump_sigma2 ();
    (* "exists a K-sized witnessed W and a counter-model": W = S, so decide
       SAT(DB ∪ ¬(P∖S) ∪ ¬F). *)
    not
      (Ddb_engine.Engine.augmented_entails eng db
         (Interp.diff (Partition.p part) (Lazy.force support))
         f)
  in
  (query_at_least, query_final)

let entails_log_in eng db part f =
  if Formula.max_atom f >= Partition.universe_size part then
    invalid_arg
      "Oracle_algorithms.entails_log_in: query atom outside partition";
  let before = (Stats.snapshot ()).Stats.sigma2 in
  let query_at_least, query_final = make_oracle eng db part in
  let p_size = Interp.cardinal (Partition.p part) in
  (* Binary search for K = |S| ∈ [0, |P|]. *)
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi + 1) / 2 in
      if query_at_least mid then search mid hi else search lo (mid - 1)
  in
  let _k = search 0 p_size in
  let counterexample = query_final f in
  {
    answer = not counterexample;
    sigma2_queries = (Stats.snapshot ()).Stats.sigma2 - before;
    p_size;
  }

(* The naive P^Σ₂ᵖ[O(n)] algorithm: one query per atom ("is x true in some
   minimal model?"), then the same final query. *)
let entails_linear db part f =
  if Formula.max_atom f >= Partition.universe_size part then
    invalid_arg "Oracle_algorithms.entails_linear: query atom outside partition";
  let before = (Stats.snapshot ()).Stats.sigma2 in
  let theory = Db.theory db in
  let supported x =
    Stats.bump_sigma2 ();
    Option.is_some
      (Minimal.find_minimal_such_that ~extra:[ [ Lit.Pos x ] ] theory part)
  in
  let support =
    Interp.fold
      (fun x acc -> if supported x then Interp.add acc x else acc)
      (Partition.p part)
      (Interp.empty (Db.num_vars db))
  in
  let negs = Interp.diff (Partition.p part) support in
  Stats.bump_sigma2 ();
  let answer = Models.augmented_entails db negs f in
  {
    answer;
    sigma2_queries = (Stats.snapshot ()).Stats.sigma2 - before;
    p_size = Interp.cardinal (Partition.p part);
  }

let gcwa_formula_in eng db f =
  let db = Semantics.for_query db f in
  entails_log_in eng db (Partition.minimize_all (Db.num_vars db)) f

(* Upper bound on the oracle calls the log algorithm may make: the binary
   search over [0, p] plus the final query. *)
let log_bound p_size =
  let rec bits k acc = if k <= 0 then acc else bits (k / 2) (acc + 1) in
  bits p_size 0 + 1

(* --- the CWA consistency remark ---

   The paper notes that deciding consistency of Reiter's CWA is coNP-hard
   and in P^NP[O(log n)] (but likely not in coD^P).  The log algorithm:

     CWA(DB) is consistent iff some model M of DB contains only entailed
     atoms (M ⊆ E, E = {x : DB ⊨ x}), equivalently M ∩ N = ∅ for
     N = {x : x has a countermodel}.

     1. binary-search K = |N| with NP queries "are there ≥ k atoms with
        countermodels?" (a guess of k atoms plus k countermodels);
     2. one final NP query "are there K witnessed atoms W and a model of
        DB avoiding all of W?" — any witnessed W of size K equals N.

   ⌈log₂(n+1)⌉ + 1 NP-oracle calls, against n + 1 for the per-atom
   algorithm.  As with the Σ₂ case the oracle's internal work is done by
   the SAT solver and only *queries* are counted. *)

type np_report = { consistent : bool; np_queries : int; universe : int }

let cwa_consistency_log db =
  let n = Db.num_vars db in
  let queries = ref 0 in
  let non_entailed = lazy (Models.non_entailed_atoms db) in
  let query_at_least k =
    incr queries;
    Interp.cardinal (Lazy.force non_entailed) >= k
  in
  let query_final () =
    incr queries;
    Models.augmented_has_model db (Lazy.force non_entailed)
  in
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi + 1) / 2 in
      if query_at_least mid then search mid hi else search lo (mid - 1)
  in
  let _k = search 0 n in
  let consistent = query_final () in
  { consistent; np_queries = !queries; universe = n }

(* Per-atom baseline: n entailment queries plus the final satisfiability
   check. *)
let cwa_consistency_linear db =
  let n = Db.num_vars db in
  let negs = Models.non_entailed_atoms db in
  let consistent = Models.augmented_has_model db negs in
  { consistent; np_queries = n + 1; universe = n }
