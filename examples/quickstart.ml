(* Quickstart: build a small disjunctive database, look at its models under
   several semantics, and ask the three decision questions the paper
   studies — watching the semantics genuinely disagree.

     dune exec examples/quickstart.exe                                     *)

open Ddb_logic
open Ddb_db
open Ddb_core

let () =
  (* Somebody tracked mud inside — the dog or the cat did it.  A dog
     culprit means paw prints; a cat culprit means a knocked-over vase.
     The hamster, nobody accuses. *)
  let db =
    Db.of_string
      {|
        dog | cat.
        prints :- dog.
        vase :- cat.
        framed :- dog, cat.
      |}
  in
  let vocab = Db.vocab db in
  ignore (Vocab.intern vocab "hamster");
  let db = Db.with_universe db (Vocab.size vocab) in
  Fmt.pr "Database:@.%a@.@." Db.pp db;

  Fmt.pr "Classical models (%d):@." (List.length (Models.all_models db));
  List.iter
    (fun m -> Fmt.pr "  %a@." (Interp.pp ~vocab) m)
    (Models.all_models db);
  Fmt.pr "Minimal models (= EGCWA):@.";
  List.iter
    (fun m -> Fmt.pr "  %a@." (Interp.pp ~vocab) m)
    (Models.minimal_models db);
  Fmt.pr "Possible models (= PWS):@.";
  List.iter
    (fun m -> Fmt.pr "  %a@." (Interp.pp ~vocab) m)
    (Possible.possible_models db);
  Fmt.pr "@.";

  (* The semantics disagree in characteristic ways.  Every query runs on
     one memoizing oracle engine. *)
  let eng = Ddb_engine.Engine.create () in
  let infer name s =
    (Registry.in_exn eng name).Semantics.infer_formula db (Parse.formula vocab s)
  in
  let ask name answer = Fmt.pr "  %-46s %b@." name answer in
  Fmt.pr "Queries:@.";
  ask "GCWA  |= ~hamster   (innocent bystander)" (infer "gcwa" "~hamster");
  ask "GCWA  |= ~dog       (no: dog may be the culprit)" (infer "gcwa" "~dog");
  ask "EGCWA |= ~(dog & cat)  (exactly-one reading)"
    (infer "egcwa" "~(dog & cat)");
  ask "PWS   |= ~(dog & cat)  (possible-worlds: no!)"
    (infer "pws" "~(dog & cat)");
  ask "EGCWA |= prints | vase  (some evidence follows)"
    (infer "egcwa" "prints | vase");
  ask "GCWA  |= ~framed  (false in every minimal model)"
    (infer "gcwa" "~framed");
  ask "DDR   |= ~framed  (weak closure misses it)" (infer "ddr" "~framed");
  Fmt.pr "@.";
  (* 'framed' occurs in a derivable disjunction (hyperresolving the two
     evidence rules against dog v cat), so the DDR never closes it — the
     same blindness the paper's Example 3.1 exhibits. *)
  assert (infer "gcwa" "~framed");
  assert (not (infer "ddr" "~framed"));

  (* Both-culprits is a possible model but never a minimal one: EGCWA and
     PWS genuinely differ. *)
  assert (infer "egcwa" "~(dog & cat)");
  assert (not (infer "pws" "~(dog & cat)"));

  (* Model existence per semantics (the third column of the tables). *)
  Fmt.pr "Model existence:@.";
  List.iter
    (fun name ->
      Fmt.pr "  %-8s %b@." name
        ((Registry.in_exn eng name).Semantics.has_model db))
    (Registry.applicable_names db)
