(* Name → packed semantics, for the CLI, examples, benches and the batch
   layer.

   Every semantics is built on a caller-supplied oracle engine; there is
   no engine-free copy.  The partition-parametric semantics (CCWA, ECWA,
   CIRC, ICWA) appear with their canonical total partition ⟨V;∅;∅⟩; use
   their modules directly for custom partitions.

   A record built on [Engine.create ~cache:false ~fastpath:false ()] runs
   every query on fresh solvers through the generic oracle procedures:
   that is the ablation baseline ([find]), and what the golden
   oracle-count test pins. *)

module Engine = Ddb_engine.Engine

(* The one registry table, in registry order. *)
let table : (Engine.t -> Semantics.t) list =
  [
    Cwa.semantics_in;
    Gcwa.semantics_in;
    Ddr.semantics_in;
    Pws.semantics_in;
    Egcwa.semantics_in;
    Ccwa.semantics_in;
    Ecwa.semantics_in;
    Circ.semantics_in;
    Icwa.semantics_in;
    Perf.semantics_in;
    Dsm.semantics_in;
    Pdsm.semantics_in;
  ]

let ablation_engine () = Engine.create ~cache:false ~fastpath:false ()

(* Records on one throwaway engine, for the engine-independent fields
   (name, applicability).  Building a record runs no query. *)
let static =
  let eng = ablation_engine () in
  List.map (fun make -> make eng) table

let names = List.map (fun (s : Semantics.t) -> s.Semantics.name) static
let by_name = List.combine names table

(* Engine-routed records additionally go through the fragment fast-path
   dispatcher: tractable (semantics, problem, fragment) cells are answered
   by the polynomial algorithms of [Ddb_frag], everything else falls back
   to the generic oracle procedures.  An engine created with
   [~fastpath:false] turns the dispatcher off.  Only the named record is
   built and wrapped: a warm query costs one record, not twelve. *)
let find_in eng name =
  List.find_opt (fun (n, _) -> String.equal n name) by_name
  |> Option.map (fun (_, make) -> Fastpath.wrap eng (make eng))

let find name = find_in (ablation_engine ()) name

let applicable_names db =
  List.filter_map
    (fun (s : Semantics.t) ->
      if s.Semantics.applicable db then Some s.Semantics.name else None)
    static

let in_exn eng name =
  match find_in eng name with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Registry: unknown semantics %S" name)

(* Budgeted evaluation by name: the query runs under a fresh budget token
   and degrades to [Unknown] instead of running unboundedly
   ([Budget.no_limits] never trips).  The engine records each degraded
   cell in its [unknowns] counters; the memo only ever sees definite
   answers (the budget trip unwinds first). *)

let infer_literal3_in ?retry ?group eng ~limits ~sem db l =
  let s = in_exn eng sem in
  Engine.budgeted ?retry ?group eng limits ~sem (fun () ->
      s.Semantics.infer_literal db l)

let infer_formula3_in ?retry ?group eng ~limits ~sem db f =
  let s = in_exn eng sem in
  Engine.budgeted ?retry ?group eng limits ~sem (fun () ->
      s.Semantics.infer_formula db f)

let has_model3_in ?retry ?group eng ~limits ~sem db =
  let s = in_exn eng sem in
  Engine.budgeted ?retry ?group eng limits ~sem (fun () ->
      s.Semantics.has_model db)
