open Ddb_logic
open Ddb_sat

(** Propositional disjunctive databases over a fixed universe. *)

type t

val make : ?vocab:Vocab.t -> Clause.t list -> t
(** Universe = max(vocabulary size, highest atom id in the clauses + 1). *)

val of_string : string -> t
(** Parse a program (see {!Ddb_logic.Parse}). *)

val of_file : string -> t

val vocab : t -> Vocab.t
val clauses : t -> Clause.t list
val num_vars : t -> int
val size : t -> int
(** Number of clauses. *)

val with_universe : t -> int -> t
(** Pad the universe to at least [n] atoms. *)

val add_clauses : t -> Clause.t list -> t

val has_integrity : t -> bool
val has_negation : t -> bool
val has_disjunction : t -> bool

val is_dddb : t -> bool
(** Disjunctive deductive database: no negation. *)

val is_positive_ddb : t -> bool
(** Table 1 setting: no negation, no integrity clauses. *)

val is_normal_program : t -> bool
(** At most one head atom per clause. *)

val satisfied_by : Interp.t -> t -> bool
val to_cnf : t -> Lit.t list list

val theory : t -> Minimal.theory
val solver : t -> Solver.t
val atoms : t -> int list
val atoms_interp : t -> Interp.t
val occurring_atoms : t -> Interp.t

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** {1 Canonical form}

    A database's clause set up to literal order, clause order and
    duplication.  It is computed once per database value, on first use,
    and shared by the copies {!with_universe} makes; {!make} and
    {!add_clauses} start a fresh one.  Domains that share a database may
    force it concurrently: they all obtain the same physical value. *)

type canonical

val canonical : t -> canonical

val canonical_form : canonical -> int list list
(** Packed literals ({!Ddb_sat.Cnf.plit_of_lit}) sorted within each
    clause; clauses sorted and deduplicated. *)

val canonical_hash : canonical -> int
(** Non-negative hash of the whole form. *)

val canonical_equal : canonical -> canonical -> bool
(** Equality of forms; constant time on physically equal values. *)
