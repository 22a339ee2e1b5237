(** Tractability-aware fast-path dispatch.

    [wrap eng s] returns [s] with its three decision problems routed
    through the engine's fragment classifier: when the (semantics,
    problem, fragment) triple lands in a P cell of the paper's Table 1 or
    Table 2, the query is answered by a dedicated polynomial algorithm
    from {!Ddb_frag.Frag} (counted as a [fastpath] hit, budget-probed,
    traced); otherwise it falls through to [s]'s generic oracle procedure
    (counted as a miss).  On an engine created with [~fastpath:false]
    ({!Ddb_engine.Engine.create}), [wrap] is the identity behaviourally —
    every query runs the generic path and no fast-path counter moves.

    Routed cells (registry semantics, canonical total partition):
    - definite-Horn databases (integrity clauses allowed): CWA, GCWA,
      EGCWA, CCWA, ECWA, CIRC, DDR, PWS and DSM all have the single
      intended model [lfp(DB)] when consistent (and no models otherwise),
      so inference is evaluation in the least model and existence is the
      linear consistency check;
    - positive databases without integrity clauses: DDR/PWS
      negative-literal inference via the linear relevancy-graph closure
      (Chan's tractable cell), GCWA/CCWA model existence (always
      consistent);
    - stratified normal databases without integrity clauses: PERF, ICWA
      and DSM inference by evaluation in the iterated least model (the
      unique perfect = unique stable model), and their O(1) existence
      cells. *)

val wrap : Ddb_engine.Engine.t -> Semantics.t -> Semantics.t
