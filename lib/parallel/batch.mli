open Ddb_logic
open Ddb_db

(** Domain-parallel batch evaluation over sharded oracle engines.

    {!Ddb_engine.Engine.t} is stateful and memoizing (hash-consed keys,
    per-theory incremental solvers) and not thread-safe, so a batch context
    owns one engine {e per pool worker}; every task runs against the engine
    of the worker executing it, and instrumentation is aggregated with
    {!Ddb_engine.Engine.merge_stats} so the stats JSON schema is unchanged.

    All sweeps are order-stable (index-tagged chunks reassembled by
    position, see {!Parallel}): answers are bit-identical for every job
    count, and equal to the sequential [Registry.in_exn] path on one
    engine — a qcheck property in [test/test_parallel.ml].

    Databases are shared across workers read-only; do not grow a database's
    vocabulary concurrently with a sweep.  Workers may force a shared
    database's canonical form ({!Ddb_db.Db.canonical}) at once: it is
    published atomically. *)

type t

val create :
  ?jobs:int ->
  ?cache:bool ->
  ?fastpath:bool ->
  ?pinned:bool ->
  ?profile:bool ->
  unit ->
  t
(** [jobs] defaults to {!Pool.recommended_jobs}; [cache] (default [true])
    is the engines' memoization flag, as in {!Ddb_engine.Engine.create}.
    [fastpath] (default [true]) gates the shards' fragment fast-path
    dispatch, as in {!Ddb_engine.Engine.create} — pass [false] for the
    generic-oracle ablation baseline.
    [pinned] (default [false]) routes every sweep through
    {!Parallel.map_pinned_in} — item [k] on worker [k mod jobs] — so that
    per-worker trace streams and per-shard metrics are reproducible; turn
    it on together with a {!Ddb_obs.Trace} or [profile].  [profile]
    (default [false]) enables the shards' metrics registries
    ({!Ddb_engine.Engine.create} [~profile]). *)

val jobs : t -> int
val engines : t -> Ddb_engine.Engine.t list

val shutdown : t -> unit

val with_batch :
  ?jobs:int ->
  ?cache:bool ->
  ?fastpath:bool ->
  ?pinned:bool ->
  ?profile:bool ->
  (t -> 'a) ->
  'a

(** {1 Sweeps}

    [sems] selects semantics by registry name and defaults to every
    semantics applicable to the database, in registry order.  Unknown names
    raise [Invalid_argument].

    Every cell runs under its own fresh {!Ddb_budget.Budget} token minted
    from [limits] inside the task — per-cell wall deadlines start when the
    cell starts; logical caps are context-free per cell.  Degraded cells
    answer [Unknown]; pass [Budget.no_limits] for an unbounded sweep, whose
    answers are all definite.  [retry] is the engine's escalate-once ladder
    (default off).  [cancel_on_error] doubles as the cells' cancellation
    group: the first task exception cancels it, degrading the remaining
    cells to [Unknown Cancelled] while the pool still drains.  With
    cache-disabled shards and purely logical caps the set of [Unknown]
    cells is identical at every job count. *)

val literal_sweep3 :
  t ->
  ?sems:string list ->
  ?retry:bool ->
  ?cancel_on_error:Ddb_budget.Budget.group ->
  limits:Ddb_budget.Budget.limits ->
  Db.t ->
  (string * (Lit.t * Ddb_engine.Engine.answer) list) list
(** Every ± literal of the universe under every selected semantics
    ([¬x] then [x], for [x = 0 .. n-1]) — the closed-world query workload
    of [ddbtool stats], fanned out per (semantics, literal). *)

val all_semantics3 :
  t ->
  ?sems:string list ->
  ?retry:bool ->
  ?cancel_on_error:Ddb_budget.Budget.group ->
  limits:Ddb_budget.Budget.limits ->
  Db.t ->
  Formula.t ->
  (string * Ddb_engine.Engine.answer) list
(** Formula inference under every selected semantics, one task each. *)

val exists_sweep3 :
  t ->
  ?sems:string list ->
  ?retry:bool ->
  ?cancel_on_error:Ddb_budget.Budget.group ->
  limits:Ddb_budget.Budget.limits ->
  Db.t ->
  (string * Ddb_engine.Engine.answer) list
(** Model existence under every selected semantics, one task each. *)

val instance_sweep3 :
  t ->
  ?sems:string list ->
  ?retry:bool ->
  ?cancel_on_error:Ddb_budget.Budget.group ->
  limits:Ddb_budget.Budget.limits ->
  Db.t list ->
  (string * (Lit.t * Ddb_engine.Engine.answer) list) list list
(** {!literal_sweep3} over a list of instances, one task per
    (instance, semantics) pair — the batch shape of the bench harness's
    seeded random-DB sweeps.  Result [i] is instance [i]'s sweep. *)

(** {1 Merged instrumentation} *)

val totals : t -> Ddb_engine.Engine.stats
val per_scope : t -> Ddb_engine.Engine.stats list
val stats_json : t -> string
(** {!Ddb_engine.Engine.merged_stats_json} of the shards. *)

val metrics_json : t -> string
(** {!Ddb_engine.Engine.merged_metrics_json} of the shards — per-worker
    metrics registries merged in worker-index order (empty unless the
    batch was created with [~profile:true]). *)

val reset : t -> unit
(** {!Ddb_engine.Engine.reset} every shard: counters to zero, caches and
    shared solvers dropped. *)
