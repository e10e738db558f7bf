(* Seeded input generation for the three workloads.

   Everything the solver sees is produced here from the workload seed
   (SMT-LIB 1.2, SMT-LIB 2 and extended-DIMACS texts, JSON request lines),
   so the same seed gives byte-identical inputs.  The expected verdict of
   every FISCHER instance is fixed by how it is built: the protocol is
   safe (a = 1 < b = 2), so [Mutex_violation] is unsatisfiable; process 1
   reaches its critical section after three discrete steps and strictly
   more than b time units, so with at least 4 unrolled rounds
   [Cs_within d] is satisfiable iff d > 2. *)

module A = Absolver_core
module F = Absolver_smtlib.Fischer
module Ast = Absolver_smtlib.Ast
module Q = Absolver_numeric.Rational
module S = Absolver_encodings.Sudoku
module P = Absolver_encodings.Puzzles

let rng seed salt = Random.State.make [| seed; salt |]

let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* A deadline in eighths: sat draws from (2, 3], unsat from [1, 2]. *)
let deadline st ~sat =
  let k = if sat then 17 + Random.State.int st 8 else 8 + Random.State.int st 9 in
  Q.of_ints k 8

(* ------------------------------------------------------------------ *)
(* steering                                                            *)

(* The Table 1 flagship is one fixed instance: its requests repeat one
   deterministic solve, so the seed does not change it.  It is solved as
   built, not through a DIMACS round trip, which renumbers variables and
   so changes the search (and the Table 1 figures). *)
let steering_problem (_seed : int) = Absolver_model.Steering.problem ()

(* ------------------------------------------------------------------ *)
(* fischer_enum                                                        *)

type fischer = {
  fi_name : string;
  fi_text : string;  (** SMT-LIB 1.2 *)
  fi_sat : bool;  (** expected verdict *)
}

let fischer_instance ~n ~rounds property =
  let b = F.benchmark ~rounds ~property ~n () in
  let prop =
    match property with
    | F.Mutex_violation -> "mutex"
    | F.Cs_within d -> "d" ^ Q.to_string d
  in
  {
    fi_name = Printf.sprintf "fischer%d_r%d_%s" n rounds prop;
    fi_text = Ast.to_string b;
    fi_sat = (match property with F.Mutex_violation -> false | F.Cs_within d -> Q.gt d (Q.of_int 2));
  }

let within st ~sat = F.Cs_within (deadline st ~sat)

(* One round, 15 instances of 2 to 6 processes and 4 to 5 unrolled
   rounds, sat, unsat and mutual exclusion, listed by their cost.  Each
   instance makes two requests, enumeration and solve; on a quiet machine
   they cost 10 to 110 ms, the enumerations of sat instances the most.
   The median and the 90th percentile of a round's 30 requests fall on the
   15th and the 27th, inside the six requests of the three 4-process
   unsat cells and of the three 6-process mutual-exclusion cells: each
   percentile is then read inside one class of identical work rather than
   on the edge between two classes.  The deadline drawn inside the sat or
   the unsat band does not change the model count, so every seed has the
   same cost profile; the seed draws the deadlines and the order. *)
let fischer_cells =
  [
    (5, 4, `Mutex);
    (3, 5, `Mutex);
    (2, 4, `Sat);
    (2, 5, `Unsat);
    (3, 4, `Unsat);
    (4, 4, `Unsat);
    (4, 4, `Unsat);
    (4, 4, `Unsat);
    (3, 5, `Unsat);
    (3, 5, `Unsat);
    (2, 5, `Sat);
    (3, 4, `Sat);
    (6, 5, `Mutex);
    (6, 5, `Mutex);
    (6, 5, `Mutex);
  ]

let fischer_round seed =
  let st = rng seed 1 in
  List.map
    (fun (n, rounds, kind) ->
      fischer_instance ~n ~rounds
        (match kind with
        | `Mutex -> F.Mutex_violation
        | `Sat -> within st ~sat:true
        | `Unsat -> within st ~sat:false))
    (shuffle st fischer_cells)

(* ------------------------------------------------------------------ *)
(* server_mix                                                          *)

type request =
  | Sudoku of { clues : S.puzzle; line : string }
  | Smt1 of { sat : bool; line : string }
  | Smt2 of { sat : bool; line : string }

let request_line = function
  | Sudoku { line; _ } | Smt1 { line; _ } | Smt2 { line; _ } -> line

module Sjson = Absolver_server.Sjson

let solve_line ~format problem =
  Sjson.to_string
    (Sjson.Obj
       [
         ("id", Sjson.Num 0.);
         ("op", Sjson.Str "solve");
         ("format", Sjson.Str format);
         ("problem", Sjson.Str problem);
       ])

let smt2_line script =
  Sjson.to_string
    (Sjson.Obj
       [ ("id", Sjson.Num 0.); ("op", Sjson.Str "smt2"); ("script", Sjson.Str script) ])

(* SMT-LIB 2 rendering of the FISCHER syntax tree.  Constants are dyadic
   (integers or eighths), so a fixed decimal rendering is exact. *)
let smt2_const q =
  let s = Printf.sprintf "%.6f" (Q.to_float (Q.abs q)) in
  if not (Q.equal (Q.of_decimal_string s) (Q.abs q)) then
    invalid_arg ("smt2_const: not dyadic: " ^ Q.to_string q);
  if Q.sign q < 0 then "(- " ^ s ^ ")" else s

let rec smt2_term = function
  | Ast.T_var v -> v
  | Ast.T_const q -> smt2_const q
  | Ast.T_add ts -> "(+ " ^ String.concat " " (List.map smt2_term ts) ^ ")"
  | Ast.T_sub (a, b) -> Printf.sprintf "(- %s %s)" (smt2_term a) (smt2_term b)
  | Ast.T_neg a -> Printf.sprintf "(- %s)" (smt2_term a)
  | Ast.T_mul (a, b) -> Printf.sprintf "(* %s %s)" (smt2_term a) (smt2_term b)
  | Ast.T_div (a, b) -> Printf.sprintf "(/ %s %s)" (smt2_term a) (smt2_term b)

let rec smt2_formula = function
  | Ast.F_true -> "true"
  | Ast.F_false -> "false"
  | Ast.F_pred p -> p
  | Ast.F_cmp (c, a, b) ->
    let op =
      match c with Ast.Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">=" | Eq -> "="
    in
    Printf.sprintf "(%s %s %s)" op (smt2_term a) (smt2_term b)
  | Ast.F_not f -> Printf.sprintf "(not %s)" (smt2_formula f)
  | Ast.F_and [] -> "true"
  | Ast.F_or [] -> "false"
  | Ast.F_and fs -> "(and " ^ String.concat " " (List.map smt2_formula fs) ^ ")"
  | Ast.F_or fs -> "(or " ^ String.concat " " (List.map smt2_formula fs) ^ ")"
  | Ast.F_implies (a, b) -> Printf.sprintf "(=> %s %s)" (smt2_formula a) (smt2_formula b)
  | Ast.F_iff (a, b) -> Printf.sprintf "(= %s %s)" (smt2_formula a) (smt2_formula b)
  | Ast.F_xor (a, b) -> Printf.sprintf "(xor %s %s)" (smt2_formula a) (smt2_formula b)

(* The declarations and protocol assumptions of one FISCHER unrolling:
   the base of a client's incremental SMT-LIB 2 session. *)
let smt2_session_base ~n ~rounds =
  let b = F.benchmark ~rounds ~property:(F.Cs_within (Q.of_int 3)) ~n () in
  let sort = function Ast.S_real -> "Real" | Ast.S_int -> "Int" | Ast.S_bool -> "Bool" in
  String.concat "\n"
    (("(set-logic QF_LRA)"
     :: List.map (fun (v, s) -> Printf.sprintf "(declare-fun %s () %s)" v (sort s)) b.Ast.extrafuns)
    @ List.map (fun p -> Printf.sprintf "(declare-fun %s () Bool)" p) b.Ast.extrapreds
    @ List.map (fun f -> "(assert " ^ smt2_formula f ^ ")") b.Ast.assumptions)

(* One scoped query against the session base: the deadline property
   pushed, checked and popped again. *)
let smt2_query ~n ~rounds d =
  let b = F.benchmark ~rounds ~property:(F.Cs_within d) ~n () in
  Printf.sprintf "(push 1)\n(assert %s)\n(check-sat)\n(pop 1)" (smt2_formula b.Ast.formula)

type client = {
  cl_base : string;  (** smt2 request line declaring the session base *)
  cl_warmup : request list;  (** one request of each kind, sent at set-up *)
  cl_round : request list;  (** one round of this client's requests *)
}

(* Per client and round: Sudoku puzzles on a ladder of clue counts (the
   seed picks the puzzles), FISCHER instances in SMT-LIB 1.2 over every
   (n, verdict) cell, and as many deadline queries against the client's
   FISCHER session, half sat and half unsat, all in a seeded order.  The
   instance sizes are fixed, so every seed has the same cost profile. *)
let sudoku_clues = [ 24; 27; 30; 33; 36; 39; 42; 45 ]
let session_n = 3
let session_rounds = 4

let server_client seed c =
  let st = rng seed (100 + c) in
  let sudokus =
    List.map
      (fun clues ->
        let name = Printf.sprintf "perfbench-%d-%d-%d" seed c clues in
        let pz = P.generate ~name ~clues in
        Sudoku
          {
            clues = pz;
            line = solve_line ~format:"dimacs" (A.Dimacs_ext.to_string (S.absolver_problem pz));
          })
      sudoku_clues
  in
  let cells = List.concat_map (fun n -> [ (n, true); (n, false) ]) [ 2; 3; 4 ] in
  let smt1s =
    List.map
      (fun (n, sat) ->
        let fi = fischer_instance ~n ~rounds:4 (within st ~sat) in
        Smt1 { sat; line = solve_line ~format:"smt1" fi.fi_text })
      cells
  in
  let smt2s =
    List.map
      (fun (_, sat) ->
        Smt2
          {
            sat;
            line =
              smt2_line
                (smt2_query ~n:session_n ~rounds:session_rounds (deadline st ~sat));
          })
      cells
  in
  {
    cl_base = smt2_line (smt2_session_base ~n:session_n ~rounds:session_rounds);
    cl_warmup = [ List.hd sudokus; List.hd smt1s; List.hd smt2s ];
    cl_round = shuffle st (sudokus @ smt1s @ smt2s);
  }

let clients = 2

let server_clients seed = List.init clients (server_client seed)

(* Everything a workload's generator produces, as one string: what the
   seed tests compare. *)
let fingerprint workload seed =
  match workload with
  | "steering" -> A.Dimacs_ext.to_string (steering_problem seed)
  | "fischer_enum" ->
    String.concat "\n"
      (List.map (fun f -> f.fi_name ^ "\n" ^ f.fi_text) (fischer_round seed))
  | "server_mix" ->
    String.concat "\n"
      (List.concat_map
         (fun cl -> cl.cl_base :: List.map request_line cl.cl_round)
         (server_clients seed))
  | w -> invalid_arg ("unknown workload " ^ w)
