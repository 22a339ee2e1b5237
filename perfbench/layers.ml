open Ddb_logic
open Ddb_db
module Engine = Ddb_engine.Engine
module Solver = Ddb_sat.Solver
module Minimal = Ddb_sat.Minimal

(* Per-layer attribution: the trace fold and the direct layer kernels. *)

(* Monotonic clock, in seconds with nanosecond resolution. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let median xs =
  match List.sort compare xs with
  | [] -> 0.
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* ---- trace fold -------------------------------------------------------- *)

(* Per span name: count, inclusive µs, self µs (inclusive minus the time
   its direct children cover) and every duration (for percentiles). *)
type span_stats = {
  mutable count : int;
  mutable incl_us : float;
  mutable self_us : float;
  mutable durations : float list;
}

(* Fold [Trace.dump] (per-domain buffers concatenated in tid order; each
   buffer is balanced) into per-name statistics. *)
let fold events =
  let table : (string, span_stats) Hashtbl.t = Hashtbl.create 64 in
  let get name =
    match Hashtbl.find_opt table name with
    | Some s -> s
    | None ->
      let s = { count = 0; incl_us = 0.; self_us = 0.; durations = [] } in
      Hashtbl.add table name s;
      s
  in
  (* open spans: name, start, time covered by finished children *)
  let stack = ref [] in
  List.iter
    (fun (_tid, name, ph, ts) ->
      match ph with
      | 'B' -> stack := (name, ts, ref 0) :: !stack
      | 'E' -> (
        match !stack with
        | (open_name, t0, children) :: rest when open_name = name ->
          stack := rest;
          let d = ts - t0 in
          let s = get name in
          s.count <- s.count + 1;
          s.incl_us <- s.incl_us +. float_of_int d;
          s.self_us <- s.self_us +. float_of_int (d - !children);
          s.durations <- float_of_int d :: s.durations;
          (match rest with (_, _, c) :: _ -> c := !c + d | [] -> ())
        | _ -> failwith ("perfbench: unbalanced trace at span " ^ name))
      | _ -> ())
    events;
  table

let sum_where table pred field =
  Hashtbl.fold (fun name s acc -> if pred name then acc +. field s else acc) table 0.

let prefixed p name =
  String.length name >= String.length p && String.sub name 0 (String.length p) = p

let self_ms table p = sum_where table (prefixed p) (fun s -> s.self_us) /. 1000.
let incl_ms table name = sum_where table (String.equal name) (fun s -> s.incl_us) /. 1000.
let count table name = sum_where table (String.equal name) (fun s -> float_of_int s.count)

let p50_us table name =
  match Hashtbl.find_opt table name with Some s -> median s.durations | None -> 0.

(* ---- layer kernels ----------------------------------------------------- *)

(* Repeat [f] (one sweep over the inputs, returning its work count) until
   0.1 s have elapsed; returns (seconds, work). *)
let repeat f =
  let t0 = now () in
  let work = ref 0. in
  let elapsed = ref 0. in
  while !elapsed < 0.1 do
    work := !work +. f ();
    elapsed := now () -. t0
  done;
  (!elapsed, !work)

let take k xs = List.filteri (fun i _ -> i < k) xs

(* Solver.of_clauses + solve: ns per propagation and conflicts per second. *)
let solver_kernel dbs =
  let cnfs = List.map (fun db -> (Db.num_vars db, Db.to_cnf db)) (take 64 dbs) in
  let props = ref 0 and conflicts = ref 0 in
  let secs, _ =
    repeat (fun () ->
        List.iter
          (fun (num_vars, cnf) ->
            let s = Solver.of_clauses ~num_vars cnf in
            ignore (Solver.solve s);
            props := !props + Solver.propagations s;
            conflicts := !conflicts + Solver.conflicts s)
          cnfs;
        1.)
  in
  ( (if !props = 0 then 0. else secs *. 1e9 /. float_of_int !props),
    float_of_int !conflicts /. secs )

(* Minimal.minimize_with from the solver's first model: SAT solves per
   minimal model and µs per minimal model (descent only). *)
let minimal_kernel dbs =
  let starts =
    List.filter_map
      (fun db ->
        let n = Db.num_vars db in
        let s = Minimal.solver_of (Db.theory db) in
        match Solver.solve s with
        | Solver.Sat -> Some (db, n, Solver.model ~universe:n s)
        | Solver.Unsat -> None)
      (take 64 dbs)
  in
  let solves = ref 0 and models = ref 0 and busy = ref 0. in
  let _ =
    repeat (fun () ->
        List.iter
          (fun (db, n, m) ->
            let s = Minimal.solver_of (Db.theory db) in
            let c0 = Solver.solve_calls s in
            let t0 = now () in
            ignore (Minimal.minimize_with s (Partition.minimize_all n) m);
            busy := !busy +. (now () -. t0);
            solves := !solves + Solver.solve_calls s - c0;
            incr models)
          starts;
        1.)
  in
  if !models = 0 then (0., 0.)
  else
    ( float_of_int !solves /. float_of_int !models,
      !busy *. 1e6 /. float_of_int !models )

(* Cegar.valid: µs per 2-QBF validity query. *)
let cegar_kernel qbfs =
  let qbfs = take 32 qbfs in
  let secs, calls =
    repeat (fun () ->
        List.iter (fun q -> ignore (Ddb_qbf.Cegar.valid q)) qbfs;
        float_of_int (List.length qbfs))
  in
  if calls = 0. then 0. else secs *. 1e6 /. calls

(* The ∃∀ question a database poses over its own atoms: does some
   assignment to the lower half make the database hold for every
   assignment to the upper half?  Gives the CEGAR kernel real inputs on
   the workloads that issue no QBF requests. *)
let db_qbf db =
  let n = Db.num_vars db in
  let half = n / 2 in
  Ddb_qbf.Qbf.make ~prefix:Ddb_qbf.Qbf.Exists_forall ~num_vars:n
    ~block1:(List.init half Fun.id)
    ~block2:(List.init (n - half) (fun i -> half + i))
    ~matrix:(Formula.big_and (List.map Formula.disj_of_lits (Db.to_cnf db)))

(* Frag.info, forcing each lazy field under its fragment gate: µs per
   database. *)
let frag_kernel dbs =
  let dbs = take 64 dbs in
  let secs, calls =
    repeat (fun () ->
        List.iter
          (fun db ->
            let i = Ddb_frag.Frag.info db in
            let f = i.Ddb_frag.Frag.frag in
            if f.Ddb_frag.Frag.definite then begin
              ignore (Lazy.force i.Ddb_frag.Frag.least);
              ignore (Lazy.force i.Ddb_frag.Frag.consistent)
            end;
            if f.Ddb_frag.Frag.stratified && f.Ddb_frag.Frag.normal
               && f.Ddb_frag.Frag.no_integrity
            then ignore (Lazy.force i.Ddb_frag.Frag.perfect);
            if f.Ddb_frag.Frag.positive then ignore (Lazy.force i.Ddb_frag.Frag.derivable))
          dbs;
        float_of_int (List.length dbs))
  in
  secs *. 1e6 /. calls

(* Engine.theory_key on a fresh engine (canonicalize + hash-cons), and a
   warm Engine.sat memo hit: µs per call each. *)
let engine_kernels dbs =
  let dbs = take 64 dbs in
  let k = float_of_int (List.length dbs) in
  let key_s, key_calls =
    repeat (fun () ->
        let e = Engine.create () in
        List.iter (fun db -> ignore (Engine.theory_key e db)) dbs;
        k)
  in
  let e = Engine.create () in
  List.iter (fun db -> ignore (Engine.sat e db)) dbs;
  let hit_s, hit_calls =
    repeat (fun () ->
        List.iter (fun db -> ignore (Engine.sat e db)) dbs;
        k)
  in
  (key_s *. 1e6 /. key_calls, hit_s *. 1e6 /. hit_calls)

(* Pool.run on no-op tasks at jobs:2: µs of dispatch per task. *)
let pool_kernel () =
  Ddb_parallel.Pool.with_pool ~jobs:2 (fun pool ->
      let tasks = List.init 256 (fun _ _ -> ()) in
      let secs, n =
        repeat (fun () ->
            Ddb_parallel.Pool.run pool tasks;
            256.)
      in
      secs *. 1e6 /. n)

(* Engine.budgeted on a constant thunk: µs per wrapped call. *)
let budget_kernel limits =
  let e = Engine.create () in
  let secs, n =
    repeat (fun () ->
        for _ = 1 to 1000 do
          ignore (Engine.budgeted e limits ~sem:"perfbench" (fun () -> true))
        done;
        1000.)
  in
  secs *. 1e6 /. n
