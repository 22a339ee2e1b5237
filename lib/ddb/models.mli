open Ddb_logic

(** Model-theoretic primitives: M(DB), MM(DB), MM(DB;P;Z), classical and
    minimal-model entailment.  SAT-backed engines plus brute-force
    references for small universes. *)

val is_model : Db.t -> Interp.t -> bool
val has_model : Db.t -> bool
val some_model : Db.t -> Interp.t option
val all_models : ?limit:int -> ?truncated:bool ref -> Db.t -> Interp.t list
val minimal_models : ?limit:int -> ?truncated:bool ref -> Db.t -> Interp.t list
(** When [limit] cuts an enumeration short, [truncated] (if given) is set
    to [true] — truncation used to be silent. *)

val is_minimal_model : ?part:Partition.t -> Db.t -> Interp.t -> bool
val some_minimal_model : ?part:Partition.t -> Db.t -> Interp.t option

val minimal_section_models :
  ?limit:int -> ?truncated:bool ref -> Db.t -> Partition.t -> Interp.t list
(** One representative (P;Z)-minimal model per (P,Q)-section. *)

val minimal_entails : ?part:Partition.t -> Db.t -> Formula.t -> bool
(** MM(DB;P;Z) ⊨ F by counterexample guess-and-check (default: total
    partition, i.e. EGCWA entailment). *)

val entails : Db.t -> Formula.t -> bool
(** Classical DB ⊨ F: one SAT call. *)

(** {1 Closed-world augmentations}

    Fresh-solver forms of the queries the CWA family (CWA, GCWA, CCWA,
    DDR) asks of DB ∪ {¬x : x ∈ negs}. *)

val non_entailed_atoms : Db.t -> Interp.t
(** [{x : DB ⊭ x}] — Reiter's CWA closure set, n assumption solves. *)

val augmented_cnf : Db.t -> Interp.t -> Lit.t list list
(** DB ∪ {¬x : x ∈ negs} as CNF. *)

val augmented_entails : Db.t -> Interp.t -> Formula.t -> bool
(** [DB ∪ {¬x : x ∈ negs} ⊨ F]: one SAT call; the universe is padded to
    cover [F]. *)

val augmented_has_model : Db.t -> Interp.t -> bool
(** [DB ∪ {¬x : x ∈ negs}] has a model: one SAT call. *)

val brute_models : Db.t -> Interp.t list
val brute_minimal_models : ?part:Partition.t -> Db.t -> Interp.t list
