(** Name → packed semantics (partition-parametric ones appear with the
    total partition ⟨V;∅;∅⟩), each built on a caller-supplied oracle
    engine. *)

val find_in : Ddb_engine.Engine.t -> string -> Semantics.t option
(** The named semantics on the engine, wrapped in the fragment fast-path
    dispatcher ({!Fastpath.wrap}; inert when the engine was created with
    [~fastpath:false]).  Only the named record is built. *)

val in_exn : Ddb_engine.Engine.t -> string -> Semantics.t
(** {!find_in}, raising [Invalid_argument] on an unknown name. *)

val find : string -> Semantics.t option
(** {!find_in} on a fresh ablation engine
    ([Engine.create ~cache:false ~fastpath:false ()]): fresh solvers and
    the generic oracle procedures for every query. *)

val names : string list

val applicable_names : Ddb_db.Db.t -> string list
(** Names of the semantics applicable to the database, in registry order. *)

(** {1 Budgeted evaluation by name}

    One query on a caller-supplied engine — what the domain-parallel batch
    layer ([Ddb_parallel.Batch]) runs on its per-worker engine shards —
    under a fresh {!Ddb_budget.Budget} token minted from [limits]: the
    answer is [True]/[False], or [Unknown reason] when the budget trips
    ([Budget.no_limits] never does).  See {!Ddb_engine.Engine.budgeted}
    for [retry] — the escalate-once ladder, off by default — and [group]
    cancellation.  Unknown names raise [Invalid_argument]. *)

val infer_literal3_in :
  ?retry:bool ->
  ?group:Ddb_budget.Budget.group ->
  Ddb_engine.Engine.t ->
  limits:Ddb_budget.Budget.limits ->
  sem:string ->
  Ddb_db.Db.t ->
  Ddb_logic.Lit.t ->
  Ddb_engine.Engine.answer

val infer_formula3_in :
  ?retry:bool ->
  ?group:Ddb_budget.Budget.group ->
  Ddb_engine.Engine.t ->
  limits:Ddb_budget.Budget.limits ->
  sem:string ->
  Ddb_db.Db.t ->
  Ddb_logic.Formula.t ->
  Ddb_engine.Engine.answer

val has_model3_in :
  ?retry:bool ->
  ?group:Ddb_budget.Budget.group ->
  Ddb_engine.Engine.t ->
  limits:Ddb_budget.Budget.limits ->
  sem:string ->
  Ddb_db.Db.t ->
  Ddb_engine.Engine.answer
