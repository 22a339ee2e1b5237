open Ddb_logic
open Ddb_db

(* Model-based diagnosis of combinational circuits — the classic
   circumscription application, used both as a realistic ECWA/CCWA workload
   and as an example application.

   A circuit is a DAG of gates over boolean wires.  Each gate g gets an
   abnormality atom ab_g; its behaviour clauses are guarded by ¬ab_g in the
   classical sense, i.e. encoded as rules with ab_g in the head
   ("either the gate behaves, or it is abnormal").  Observations pin input
   and output wires.  Minimizing the ab-atoms with wires floating — i.e.
   ECWA/CIRC with P = abnormality atoms, Z = internal wires, Q = observed
   wires — makes the (P;Z)-minimal models exactly the minimal diagnoses. *)

type gate_kind = And | Or | Not | Xor

type gate = { kind : gate_kind; inputs : int list; output : int }
(* wires are indices *)

type circuit = { num_wires : int; gates : gate list }

let wire_atom vocab w = Vocab.intern vocab (Printf.sprintf "w%d" w)
let ab_atom vocab g = Vocab.intern vocab (Printf.sprintf "ab%d" g)

(* Truth table of a gate as clauses  out-behaviour ∨ ab_g.  Every clause of
   the CNF of (out ↔ f(inputs)) is weakened with the ab atom in the head. *)
let gate_clauses vocab idx gate =
  let ab = ab_atom vocab idx in
  let out = wire_atom vocab gate.output in
  let ins = List.map (wire_atom vocab) gate.inputs in
  let spec =
    match gate.kind, ins with
    | And, _ ->
      Formula.Iff (Formula.Atom out, Formula.big_and (List.map Formula.atom ins))
    | Or, _ ->
      Formula.Iff (Formula.Atom out, Formula.big_or (List.map Formula.atom ins))
    | Not, [ a ] -> Formula.Iff (Formula.Atom out, Formula.Not (Formula.Atom a))
    | Xor, [ a; b ] ->
      Formula.Iff (Formula.Atom out, Formula.Not (Formula.Iff (Formula.Atom a, Formula.Atom b)))
    | (Not | Xor), _ -> invalid_arg "Diagnosis: gate arity"
  in
  List.map
    (fun clause_lits ->
      (* classical clause  l1 ∨ ... ∨ lk  becomes the rule
         (positive lits ∨ ab) :- (negated atoms) *)
      let head, pos =
        List.fold_left
          (fun (h, p) l ->
            match l with Lit.Pos x -> (x :: h, p) | Lit.Neg x -> (h, x :: p))
          ([ ab ], []) clause_lits
      in
      Clause.make ~head ~pos ~neg:[])
    (Formula.cnf spec)

type observation = { wire : int; value : bool }

let observation_clause vocab obs =
  let w = wire_atom vocab obs.wire in
  if obs.value then Clause.fact [ w ] else Clause.integrity ~pos:[ w ] ~neg:[]

(* The diagnosis database and its canonical partition. *)
let instance circuit ~observations =
  let vocab = Vocab.create () in
  (* wires first, then ab atoms — makes layout predictable *)
  for w = 0 to circuit.num_wires - 1 do
    ignore (wire_atom vocab w)
  done;
  List.iteri (fun i _ -> ignore (ab_atom vocab i)) circuit.gates;
  let clauses =
    List.concat (List.mapi (fun i g -> gate_clauses vocab i g) circuit.gates)
    @ List.map (observation_clause vocab) observations
  in
  let db = Db.make ~vocab clauses in
  let n = Db.num_vars db in
  let abs =
    Interp.of_list n (List.mapi (fun i _ -> ab_atom vocab i) circuit.gates)
  in
  let observed =
    Interp.of_list n
      (List.map (fun o -> wire_atom vocab o.wire) observations)
  in
  let free_wires = Interp.diff (Interp.complement abs) observed in
  let part = Partition.make ~p:abs ~q:observed ~z:free_wires in
  (db, part, abs)

(* Minimal diagnoses as ab-atom sets (one representative per diagnosis). *)
let minimal_diagnoses ?limit ?truncated circuit ~observations =
  let db, part, abs = instance circuit ~observations in
  List.sort_uniq Interp.compare
    (List.map
       (fun m -> Interp.inter m abs)
       (Models.minimal_section_models ?limit ?truncated db part))

(* Is gate g certainly healthy?  CCWA: ¬ab_g holds iff g appears in no
   minimal diagnosis. *)
let certainly_healthy eng circuit ~observations g =
  let db, part, _ = instance circuit ~observations in
  let vocab = Db.vocab db in
  Ddb_core.Ccwa.infer_literal_in eng db part (Lit.Neg (ab_atom vocab g))

(* A ripple-carry adder over [bits] bits: a scalable diagnosis family.
   Wire layout per bit i: a_i, b_i, carry_i (carry_0 is the carry-in),
   sum_i, plus internal wires; gates: two XOR, two AND, one OR per bit. *)
let ripple_adder bits =
  let next = ref 0 in
  let fresh () =
    let w = !next in
    incr next;
    w
  in
  let a = Array.init bits (fun _ -> fresh ()) in
  let b = Array.init bits (fun _ -> fresh ()) in
  let carry = Array.init (bits + 1) (fun _ -> fresh ()) in
  let sum = Array.init bits (fun _ -> fresh ()) in
  let gates = ref [] in
  let add kind inputs output = gates := { kind; inputs; output } :: !gates in
  for i = 0 to bits - 1 do
    let axb = fresh () in
    let and1 = fresh () in
    let and2 = fresh () in
    add Xor [ a.(i); b.(i) ] axb;
    add Xor [ axb; carry.(i) ] sum.(i);
    add And [ a.(i); b.(i) ] and1;
    add And [ axb; carry.(i) ] and2;
    add Or [ and1; and2 ] carry.(i + 1)
  done;
  let circuit = { num_wires = !next; gates = List.rev !gates } in
  (circuit, a, b, carry, sum)

(* Observations for an adder computing a + b with a fault injected: the
   expected outputs with one sum bit flipped. *)
let faulty_adder_observations ~bits ~a_val ~b_val ~flip_bit =
  let circuit, a, b, carry, sum = ripple_adder bits in
  let bit v i = (v lsr i) land 1 = 1 in
  let total = a_val + b_val in
  let obs = ref [ { wire = carry.(0); value = false } ] in
  for i = 0 to bits - 1 do
    obs := { wire = a.(i); value = bit a_val i } :: !obs;
    obs := { wire = b.(i); value = bit b_val i } :: !obs;
    let expected = bit total i in
    let value = if i = flip_bit then not expected else expected in
    obs := { wire = sum.(i); value } :: !obs
  done;
  (circuit, List.rev !obs)
