(* Name → packed semantics, for the CLI, examples and benches.

   The partition-parametric semantics (CCWA, ECWA, ICWA) appear with their
   canonical total partition ⟨V;∅;∅⟩; use their modules directly for custom
   partitions.

   Two families are exposed: [all] packs the direct decision procedures
   (fresh solvers per query — the paper's algorithms verbatim), [all_in eng]
   routes every semantics through the given memoizing oracle engine (shared
   incremental solvers, per-theory caches, per-semantics instrumentation).
   A cache-disabled engine makes [all_in] behave like [all], which is what
   the cache-soundness tests compare. *)

(* The one registry table: each semantics' direct record beside its
   engine-routed constructor, in registry order. *)
let table : (Semantics.t * (Ddb_engine.Engine.t -> Semantics.t)) list =
  [
    (Cwa.semantics, Cwa.semantics_in);
    (Gcwa.semantics, Gcwa.semantics_in);
    (Ddr.semantics, Ddr.semantics_in);
    (Pws.semantics, Pws.semantics_in);
    (Egcwa.semantics, Egcwa.semantics_in);
    (Ccwa.semantics, Ccwa.semantics_in);
    (Ecwa.semantics, Ecwa.semantics_in);
    (Circ.semantics, Circ.semantics_in);
    (Icwa.semantics, Icwa.semantics_in);
    (Perf.semantics, Perf.semantics_in);
    (Dsm.semantics, Dsm.semantics_in);
    (Pdsm.semantics, Pdsm.semantics_in);
  ]

let all = List.map fst table

(* Engine-routed records additionally go through the fragment fast-path
   dispatcher: tractable (semantics, problem, fragment) cells are answered
   by the polynomial algorithms of [Ddb_frag], everything else falls back
   to the generic oracle procedures.  [Engine.set_fastpath] (or
   [create ~fastpath:false]) turns the dispatcher off, which restores the
   pre-dispatch behaviour exactly. *)
let routed eng (_, semantics_in) = Fastpath.wrap eng (semantics_in eng)

let all_in eng = List.map (routed eng) table

let find name =
  List.find_opt
    (fun (s : Semantics.t) -> String.equal s.Semantics.name name)
    all

(* Builds and wraps the named record only: a warm query costs one record,
   not twelve. *)
let find_in eng name =
  List.find_opt
    (fun ((s : Semantics.t), _) -> String.equal s.Semantics.name name)
    table
  |> Option.map (routed eng)

let names = List.map (fun (s : Semantics.t) -> s.Semantics.name) all

let applicable_names db =
  List.filter_map
    (fun (s : Semantics.t) ->
      if s.Semantics.applicable db then Some s.Semantics.name else None)
    all

(* Batch entry points: one-shot evaluation by name on a caller-supplied
   engine.  The domain-parallel batch layer resolves names the same way
   ([find_in]) on its per-domain engines; these are also the sequential
   baseline its determinism tests compare against. *)

let in_exn eng name =
  match find_in eng name with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Registry: unknown semantics %S" name)

let infer_literal_in eng ~sem db l = (in_exn eng sem).Semantics.infer_literal db l
let infer_formula_in eng ~sem db f = (in_exn eng sem).Semantics.infer_formula db f
let has_model_in eng ~sem db = (in_exn eng sem).Semantics.has_model db

(* Three-valued (budgeted) variants: same queries under a fresh budget
   token, degrading to [Unknown] instead of running unboundedly.  The
   engine records each degraded cell in its [unknowns] counters; the memo
   only ever sees definite answers (the budget trip unwinds first). *)

let infer_literal3_in ?retry ?group eng ~limits ~sem db l =
  let s = in_exn eng sem in
  Ddb_engine.Engine.budgeted ?retry ?group eng limits ~sem (fun () ->
      s.Semantics.infer_literal db l)

let infer_formula3_in ?retry ?group eng ~limits ~sem db f =
  let s = in_exn eng sem in
  Ddb_engine.Engine.budgeted ?retry ?group eng limits ~sem (fun () ->
      s.Semantics.infer_formula db f)

let has_model3_in ?retry ?group eng ~limits ~sem db =
  let s = in_exn eng sem in
  Ddb_engine.Engine.budgeted ?retry ?group eng limits ~sem (fun () ->
      s.Semantics.has_model db)
