open Ddb_logic

(** Minimal models w.r.t. the (P;Z)-preorder via SAT oracle calls — the
    engine behind GCWA, EGCWA, CCWA, ECWA/CIRC and the stable-model check. *)

type theory = { num_vars : int; clauses : Lit.t list list }

val theory : num_vars:int -> Lit.t list list -> theory

val solver_of : theory -> Solver.t

val find_below : Solver.t -> Partition.t -> Interp.t -> Interp.t option
(** A model strictly below the given model in the (P;Z)-preorder, if any.
    One SAT call (plus a retired selector variable) on the given solver,
    which must contain exactly the theory. *)

val is_minimal_with : Solver.t -> Partition.t -> Interp.t -> bool
val is_minimal : theory -> Partition.t -> Interp.t -> bool
(** Is the given model (P;Z)-minimal?  Exactly one SAT call. *)

val pin : ?offset:int -> int -> Interp.t -> Lit.t list
(** [pin ~offset n m]: assumptions fixing variable [offset + x] to the
    value of atom [x] in [m], for every [x < n] (default offset 0).  The
    shape of a check solver that encodes its test once over a copy of the
    universe and pins the copy per candidate (CIRC's schema solver, the
    PERF and DSM checkers). *)

val minimize_with : Solver.t -> Partition.t -> Interp.t -> Interp.t
val minimize : theory -> Partition.t -> Interp.t -> Interp.t
(** Descend from a model to some minimal model below it. *)

val find_minimal : theory -> Partition.t -> Interp.t option
(** Some (P;Z)-minimal model, or [None] when the theory is inconsistent. *)

val cone_blocking : Partition.t -> Interp.t -> Lit.t list
(** Clause excluding the cone {N : N∩Q = m∩Q, N∩P ⊇ m∩P}. *)

val find_minimal_such_that :
  ?extra:Lit.t list list ->
  theory ->
  Partition.t ->
  Interp.t option
(** Guess-and-check search for a (P;Z)-minimal model of the theory
    additionally satisfying the [extra] clauses (which may mention auxiliary
    atoms beyond the universe — they float like Z-atoms).  Candidates are
    minimized within theory ∧ extra and screened by one plain-minimality
    oracle call, with cone blocking; this is the Σ₂ᵖ guess-and-check loop of
    the paper's upper bounds. *)

val support_set : theory -> Partition.t -> Interp.t
(** [{x ∈ P : x true in some (P;Z)-minimal model}], grown by one
    guess-and-check search whose constraint "some P-atom outside the set so
    far is true" is strengthened after each answer (at most |P| + 1
    answers asked for).  The three solvers and the cone blocks are kept for
    the whole computation. *)

val all_minimal : ?limit:int -> ?truncated:bool ref -> theory -> Interp.t list
(** All ⊆-minimal models (total partition), via minimize-then-block.  When
    [limit] cuts the enumeration short, [truncated] (if given) is set to
    [true] — hitting the limit used to be silent.  Each reported model also
    charges the ambient {!Ddb_budget.Budget} enumeration cap. *)

val iter_minimal :
  ?extra:Lit.t list list ->
  theory ->
  (Interp.t -> [ `Continue | `Stop ]) ->
  unit
(** Lazily enumerate the ⊆-minimal models of the theory that satisfy the
    [extra] clauses (all of them, each once). *)

val minimal_of_models : Partition.t -> Interp.t list -> Interp.t list
(** Reference filter: the (P;Z)-minimal elements of an explicit model list. *)
