(* Tests for the linear relaxation layer (DESIGN.md Sec. 17): exact cut
   soundness over sampled box points, the octagon middle tier, the
   scoped incremental-session API, and a seeded relax-on/off
   differential suite at --jobs 1 and --jobs 4. *)

module Q = Absolver_numeric.Rational
module I = Absolver_numeric.Interval
module E = Absolver_nlp.Expr
module Box = Absolver_nlp.Box
module BP = Absolver_nlp.Branch_prune
module L = Absolver_lp.Linexpr
module Inc = Absolver_lp.Incremental
module Oct = Absolver_relax.Octagon
module Relax = Absolver_relax.Relax
module A = Absolver_core

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Cut soundness: every enclosure brackets the expression and every    *)
(* cut over-approximates the atom at sampled points of the box. All    *)
(* sample coordinates are small dyadics (multiples of 1/8), so float   *)
(* boxes represent them exactly and every rational evaluation below is *)
(* exact — no float slop anywhere in the comparisons.                  *)

let grid_points (ranges : (float * float) list) =
  (* Per-variable: endpoints, midpoint, and two interior dyadics. *)
  let per_var (lo, hi) =
    let mid = (lo +. hi) /. 2.0 in
    List.sort_uniq compare
      [ lo; hi; mid; (lo +. mid) /. 2.0; (mid +. hi) /. 2.0 ]
  in
  List.fold_left
    (fun acc r ->
      List.concat_map (fun p -> List.map (fun v -> v :: p) (per_var r)) acc)
    [ [] ]
    ranges
  |> List.map (fun p -> Array.of_list (List.rev p))

let box_of_ranges ranges =
  Box.of_bounds
    (List.mapi (fun i (lo, hi) -> (i, I.make lo hi)) ranges)
    (List.length ranges)

let q_env (p : float array) v = Q.of_float p.(v)

(* The rational-arithmetic fragment: evaluation is exact, so the bracket
   check is an exact rational comparison. *)
let check_enclosure_exact name expr ranges =
  let box = box_of_ranges ranges in
  let enc = Relax.enclose_expr ~box expr in
  List.iter
    (fun p ->
      match E.eval_exact (q_env p) expr with
      | None -> Alcotest.failf "%s: expected exact evaluation" name
      | Some v ->
        (match enc.Relax.enc_lo with
        | Some lo ->
          let lv = L.eval (q_env p) lo in
          if Q.compare lv v > 0 then
            Alcotest.failf "%s: lower enclosure %s > value %s" name
              (Q.to_string lv) (Q.to_string v)
        | None -> ());
        (match enc.Relax.enc_hi with
        | Some hi ->
          let hv = L.eval (q_env p) hi in
          if Q.compare hv v < 0 then
            Alcotest.failf "%s: upper enclosure %s < value %s" name
              (Q.to_string hv) (Q.to_string v)
        | None -> ()))
    (grid_points ranges)

(* Transcendentals have no exact evaluation; the strongest exact
   statement is against the outward interval evaluation at the (exactly
   represented) sample point: a lower enclosure above the interval's
   upper bound — or an upper one below its lower bound — is a proven
   soundness violation. The comparisons themselves stay exact. *)
let check_enclosure_interval name expr ranges =
  let box = box_of_ranges ranges in
  let enc = Relax.enclose_expr ~box expr in
  List.iter
    (fun p ->
      let iv = E.eval_interval (fun v -> I.make p.(v) p.(v)) expr in
      (match enc.Relax.enc_lo with
      | Some lo ->
        let lv = L.eval (q_env p) lo in
        if Q.compare lv (Q.of_float (iv.I.hi)) > 0 then
          Alcotest.failf "%s: lower enclosure %s > sup %g" name
            (Q.to_string lv) (iv.I.hi)
      | None -> ());
      match enc.Relax.enc_hi with
      | Some hi ->
        let hv = L.eval (q_env p) hi in
        if Q.compare hv (Q.of_float (iv.I.lo)) < 0 then
          Alcotest.failf "%s: upper enclosure %s < inf %g" name
            (Q.to_string hv) (iv.I.lo)
      | None -> ())
    (grid_points ranges)

let x = E.var 0
let y = E.var 1

let test_enclosure_rational () =
  check_enclosure_exact "x*y" (E.mul x y) [ (-2.0, 3.0); (-1.0, 4.0) ];
  check_enclosure_exact "x*y neg" (E.mul x y) [ (-3.0, -1.0); (-2.0, -0.5) ];
  check_enclosure_exact "x^2" (E.pow x 2) [ (-2.0, 2.0) ];
  check_enclosure_exact "x^3" (E.pow x 3) [ (-1.5, 2.0) ];
  check_enclosure_exact "x/y" (E.div x y) [ (-2.0, 2.0); (1.0, 3.0) ];
  check_enclosure_exact "x^2+y^2" (E.add (E.pow x 2) (E.pow y 2))
    [ (-1.0, 2.0); (-2.0, 1.0) ];
  check_enclosure_exact "affine" (E.sub (E.add x (E.mul (E.const (Q.of_int 3)) y)) (E.const Q.one))
    [ (-2.0, 2.0); (-2.0, 2.0) ];
  check_enclosure_exact "x*y - x^2" (E.sub (E.mul x y) (E.pow x 2))
    [ (0.5, 2.0); (-1.0, 1.0) ]

let test_enclosure_transcendental () =
  check_enclosure_interval "exp" (E.exp x) [ (-1.0, 2.0) ];
  check_enclosure_interval "log" (E.log x) [ (0.5, 4.0) ];
  check_enclosure_interval "sqrt" (E.sqrt x) [ (0.25, 4.0) ];
  check_enclosure_interval "sin" (E.sin x) [ (-1.0, 1.5) ];
  check_enclosure_interval "cos" (E.cos x) [ (0.0, 3.0) ];
  check_enclosure_interval "x*exp(y)" (E.mul x (E.exp y))
    [ (0.5, 2.0); (-1.0, 1.0) ];
  check_enclosure_interval "sin(x)+y^2" (E.add (E.sin x) (E.pow y 2))
    [ (-1.0, 1.0); (-1.0, 1.0) ]

(* Cut soundness: any sampled point that satisfies the atom exactly
   must satisfy every generated cut (slack zero keeps the comparison
   exact). *)
let check_cuts name (rel : E.rel) ranges =
  let box = box_of_ranges ranges in
  let cuts = Relax.cuts_of_rel ~slack:Q.zero ~box rel in
  let holds_exact p =
    match E.eval_exact (q_env p) rel.E.expr with
    | None -> false
    | Some v -> (
      let s = Q.sign v in
      match rel.E.op with
      | L.Le -> s <= 0
      | L.Lt -> s < 0
      | L.Ge -> s >= 0
      | L.Gt -> s > 0
      | L.Eq -> s = 0)
  in
  let checked = ref 0 in
  List.iter
    (fun p ->
      if holds_exact p then begin
        incr checked;
        List.iter
          (fun c ->
            if not (L.holds (q_env p) c) then
              Alcotest.failf "%s: cut violated at a feasible point" name)
          cuts
      end)
    (grid_points ranges);
  if !checked = 0 then Alcotest.failf "%s: no feasible sample point" name

let test_cut_soundness () =
  check_cuts "x*y <= 2"
    { E.expr = E.sub (E.mul x y) (E.const (Q.of_int 2)); op = L.Le; tag = 0 }
    [ (-2.0, 2.0); (-2.0, 2.0) ];
  check_cuts "x^2 >= 1"
    { E.expr = E.sub (E.pow x 2) (E.const Q.one); op = L.Ge; tag = 1 }
    [ (-2.0, 2.0) ];
  check_cuts "x^2 + y^2 <= 4"
    {
      E.expr = E.sub (E.add (E.pow x 2) (E.pow y 2)) (E.const (Q.of_int 4));
      op = L.Le;
      tag = 2;
    }
    [ (-2.0, 2.0); (-2.0, 2.0) ];
  check_cuts "x/y >= 1/2 (y > 0)"
    {
      E.expr = E.sub (E.div x y) (E.const (Q.of_ints 1 2));
      op = L.Ge;
      tag = 3;
    }
    [ (-2.0, 2.0); (1.0, 3.0) ];
  check_cuts "x^3 <= 1"
    { E.expr = E.sub (E.pow x 3) (E.const Q.one); op = L.Le; tag = 4 }
    [ (-1.5, 1.5) ]

(* ------------------------------------------------------------------ *)
(* Octagon middle tier.                                                *)

let test_octagon_bounds () =
  let o = Oct.create 2 in
  Oct.add1 o 0 ~pos:true (Q.of_int 3);
  (* x <= 3 *)
  Oct.add1 o 0 ~pos:false (Q.of_int (-1));
  (* -x <= -1, i.e. x >= 1 *)
  Oct.add2 o 0 ~upos:true 1 ~vpos:true (Q.of_int 4);
  (* x + y <= 4 *)
  Oct.add2 o 0 ~upos:false 1 ~vpos:true Q.zero;
  (* y - x <= 0 *)
  check bool_t "feasible" true (Oct.close o);
  let lo, hi = Oct.bounds o 0 in
  check bool_t "x lower" true (lo = Some (Q.of_int 1));
  check bool_t "x upper" true (hi = Some (Q.of_int 3));
  let _, yhi = Oct.bounds o 1 in
  (* x + y <= 4 and y - x <= 0 pair into 2y <= 4 via strengthening *)
  check bool_t "y upper" true (yhi = Some (Q.of_int 2))

let test_octagon_negative_cycle () =
  let o = Oct.create 2 in
  Oct.add2 o 0 ~upos:true 1 ~vpos:false (Q.of_int (-1));
  (* x - y <= -1 *)
  Oct.add2 o 0 ~upos:false 1 ~vpos:true (Q.of_int (-1));
  (* y - x <= -1 *)
  check bool_t "infeasible" false (Oct.close o)

let test_octagon_strengthening () =
  (* x + y <= 2 and x - y <= 0 imply x <= 1 only through the octagonal
     strengthening step (pairing the two binary rows). *)
  let o = Oct.create 2 in
  Oct.add2 o 0 ~upos:true 1 ~vpos:true (Q.of_int 2);
  Oct.add2 o 0 ~upos:true 1 ~vpos:false Q.zero;
  check bool_t "feasible" true (Oct.close o);
  let _, hi = Oct.bounds o 0 in
  check bool_t "x upper from strengthening" true (hi = Some (Q.of_int 1))

(* ------------------------------------------------------------------ *)
(* Scoped incremental-session API.                                     *)

let le_cons ?(tag = 0) terms k =
  (* sum terms <= k, encoded as expr - k <= 0 *)
  let expr =
    List.fold_left
      (fun acc (c, v) -> L.add_term acc c v)
      (L.constant (Q.neg k)) terms
  in
  { L.expr; op = L.Le; tag }

let ge_cons ?(tag = 0) terms k =
  let expr =
    List.fold_left
      (fun acc (c, v) -> L.add_term acc c v)
      (L.constant (Q.neg k)) terms
  in
  { L.expr; op = L.Ge; tag }

let test_scoped_session () =
  let s = Inc.create () in
  Inc.scope_push s;
  check bool_t "assert x <= 1" true
    (Inc.scope_assert s (le_cons [ (Q.one, 0) ] Q.one));
  check bool_t "feasible" true (Inc.scope_check s);
  Inc.scope_push s;
  check int_t "two scopes" 2 (Inc.open_scopes s);
  let ok = Inc.scope_assert s (ge_cons [ (Q.one, 0) ] (Q.of_int 2)) in
  (* x <= 1 and x >= 2: the conflict surfaces either at assert time or
     at the next check. *)
  check bool_t "conflict detected" false (ok && Inc.scope_check s);
  Inc.scope_pop s;
  check bool_t "feasible after pop" true (Inc.scope_check s);
  Inc.scope_pop s;
  check int_t "no scopes" 0 (Inc.open_scopes s)

let test_scoped_optimize () =
  let s = Inc.create () in
  Inc.scope_push s;
  ignore (Inc.scope_assert s (le_cons [ (Q.one, 0) ] (Q.of_int 5)));
  ignore (Inc.scope_assert s (ge_cons [ (Q.one, 0) ] (Q.of_int 2)));
  check bool_t "feasible" true (Inc.scope_check s);
  (match Inc.scope_maximize s (L.var 0) with
  | Inc.Opt_value d ->
    check bool_t "max = 5" true
      (Q.equal (Absolver_numeric.Delta_rational.r d) (Q.of_int 5))
  | _ -> Alcotest.fail "expected bounded maximum");
  (match Inc.scope_minimize s (L.var 0) with
  | Inc.Opt_value d ->
    check bool_t "min = 2" true
      (Q.equal (Absolver_numeric.Delta_rational.r d) (Q.of_int 2))
  | _ -> Alcotest.fail "expected bounded minimum");
  Inc.scope_pop s

let test_solve_rejected_in_scope_mode () =
  let s = Inc.create () in
  Inc.scope_push s;
  ignore (Inc.scope_assert s (le_cons [ (Q.one, 0) ] Q.one));
  (match Inc.solve s [ le_cons [ (Q.one, 0) ] Q.zero ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "Inc.solve must reject while scopes are open");
  Inc.scope_pop s

(* ------------------------------------------------------------------ *)
(* Seeded differential suite: random nonlinear AB-problems solved with *)
(* the relaxation on and off, at jobs 1 and 4. Verdicts must agree     *)
(* (modulo certified-vs-approx witnesses, which both count as sat) and *)
(* the Boolean model sets must be identical.                           *)

let rand_q st =
  (* small dyadic constants: k/4 for k in [-8, 8] *)
  Q.of_ints (Random.State.int st 17 - 8) 4

let rand_nonlinear st nreal =
  let v () = E.var (Random.State.int st nreal) in
  match Random.State.int st 8 with
  | 0 -> E.mul (v ()) (v ())
  | 1 -> E.pow (v ()) 2
  | 2 -> E.add (E.pow (v ()) 2) (E.pow (v ()) 2)
  | 3 -> E.sub (E.mul (v ()) (v ())) (v ())
  | 4 -> E.pow (v ()) 3
  | 5 -> E.sin (v ())
  | 6 -> E.add (E.mul (v ()) (v ())) (v ())
  | _ -> E.cos (v ())

let rand_problem st =
  let nbool = 2 + Random.State.int st 2 in
  let nreal = 2 in
  let p = A.Ab_problem.create () in
  A.Ab_problem.ensure_bool_vars p nbool;
  (* one clause mentioning every variable keeps all defs reachable, a
     couple of random binary clauses add Boolean structure *)
  A.Ab_problem.add_clause p
    (List.init nbool (fun i ->
         if Random.State.bool st then Absolver_sat.Types.pos (i + 1)
         else Absolver_sat.Types.neg_of_var (i + 1)));
  A.Ab_problem.add_clause p
    [
      Absolver_sat.Types.pos 1;
      (if Random.State.bool st then Absolver_sat.Types.pos 2
       else Absolver_sat.Types.neg_of_var 2);
    ];
  for v = 0 to nreal - 1 do
    let name = Printf.sprintf "x%d" v in
    let idx = A.Ab_problem.intern_arith_var p name in
    A.Ab_problem.set_bounds p idx ~lower:(Q.of_int (-2)) ~upper:(Q.of_int 2)
      ()
  done;
  for b = 1 to nbool do
    let expr = E.sub (rand_nonlinear st nreal) (E.const (rand_q st)) in
    let op = if Random.State.bool st then L.Le else L.Ge in
    A.Ab_problem.define p ~bool_var:b ~domain:A.Ab_problem.Dreal
      { E.expr; op; tag = b }
  done;
  p

let registry_jobs jobs =
  {
    A.Registry.default with
    A.Registry.nonlinear =
      [
        A.Registry.branch_prune_solver
          ~config:{ BP.default_config with BP.max_nodes = 20_000 }
          ~jobs ();
      ];
  }

let verdict_name = function
  | A.Engine.R_sat _ -> "sat"
  | A.Engine.R_unsat -> "unsat"
  | A.Engine.R_unknown _ -> "unknown"

let bool_model_set p registry relax =
  let options =
    { A.Engine.default_options with A.Engine.use_bp_relaxation = relax }
  in
  match A.Engine.all_models ~registry ~options ~limit:64 p with
  | Error e -> Alcotest.failf "all_models: %s" e
  | Ok (models, _) ->
    List.sort_uniq compare
      (List.map
         (fun (s : A.Solution.t) -> Array.to_list s.A.Solution.bools)
         models)

let differential_case st ~jobs =
  let p = rand_problem st in
  let registry = registry_jobs jobs in
  let solve relax =
    let options =
      { A.Engine.default_options with A.Engine.use_bp_relaxation = relax }
    in
    let r, _ = A.Engine.solve ~registry ~options p in
    verdict_name r
  in
  let v_on = solve true and v_off = solve false in
  if v_on <> v_off then
    Alcotest.failf "verdict differs at jobs %d: relax on %s, off %s" jobs
      v_on v_off;
  let m_on = bool_model_set p registry true
  and m_off = bool_model_set p registry false in
  if m_on <> m_off then
    Alcotest.failf "model sets differ at jobs %d (%d vs %d models)" jobs
      (List.length m_on) (List.length m_off)

let test_differential_jobs1 () =
  let st = Random.State.make [| 0x5eed; 1 |] in
  for _ = 1 to 100 do
    differential_case st ~jobs:1
  done

let test_differential_jobs4 () =
  let st = Random.State.make [| 0x5eed; 4 |] in
  for _ = 1 to 100 do
    differential_case st ~jobs:4
  done

(* ------------------------------------------------------------------ *)
(* Oracle backoff: the consult schedule rides with each node, so the   *)
(* search tree and every relaxation counter are identical at jobs 1    *)
(* and 4, and below [relax_obbt_depth] fruitless consults thin out.    *)

let parse text =
  match A.Dimacs_ext.parse_string text with
  | Ok p -> p
  | Error e -> failwith e

(* The problem's full constraint conjunction over its declared bounds,
   as branch-and-prune sees it. *)
let bp_instance text =
  let p = parse text in
  let n = A.Ab_problem.num_arith_vars p in
  let box = Box.create n in
  List.iter
    (fun (v, (lo, hi)) ->
      let f = function Some q -> Q.to_float q | None -> 0.0 in
      box.(v) <- I.make (f lo) (f hi))
    (A.Ab_problem.bounds p);
  let rels =
    List.map (fun (d : A.Ab_problem.def) -> d.rel) (A.Ab_problem.defs p)
  in
  (n, box, rels)

let bp_relax_solve ~jobs text =
  let nvars, box, rels = bp_instance text in
  let config = BP.default_config in
  let relax = Relax.oracle ~config ~nvars rels in
  BP.solve ~config ~jobs ~relax ~nvars ~box rels

let steering_text =
  {|p cnf 1 1
1 0
c def real 1 x * x + y * y <= 1
c def real 1 x + y >= 2
c bound x -2 2
c bound y -2 2
|}

(* The disc against a line just outside it (max x + y = sqrt 2 =
   1.41421...): the refutation has to shave a thin sliver, so the tree
   runs far deeper than [relax_obbt_depth]. *)
let near_miss_text =
  {|p cnf 1 1
1 0
c def real 1 x * x + y * y <= 1
c def real 1 x + y >= 1.4143
c bound x -2 2
c bound y -2 2
|}

let sphere_cap_text =
  {|p cnf 1 1
1 0
c def real 1 x * x + y * y + z * z <= 1
c def real 1 x + y + z >= 2
c bound x -2 2
c bound y -2 2
c bound z -2 2
|}

let test_backoff_parity () =
  let parity name text =
    let o1, s1 = bp_relax_solve ~jobs:1 text
    and o4, s4 = bp_relax_solve ~jobs:4 text in
    check bool_t (name ^ ": unsat at jobs 1") true (o1 = BP.Unsat);
    check bool_t (name ^ ": unsat at jobs 4") true (o4 = BP.Unsat);
    check int_t (name ^ ": nodes") s1.BP.nodes s4.BP.nodes;
    check int_t (name ^ ": lp checks") s1.BP.relax_lp_checks
      s4.BP.relax_lp_checks;
    check int_t (name ^ ": pruned") s1.BP.relax_pruned s4.BP.relax_pruned;
    check int_t (name ^ ": tightened") s1.BP.relax_tightened
      s4.BP.relax_tightened;
    s1
  in
  ignore (parity "disc/line" steering_text);
  let deep = parity "near miss" near_miss_text in
  check bool_t "near miss goes below the consult depth" true
    (deep.BP.max_depth > BP.default_config.BP.relax_obbt_depth);
  check bool_t
    (Printf.sprintf "%d lp checks < %d nodes" deep.BP.relax_lp_checks
       deep.BP.nodes)
    true
    (deep.BP.relax_lp_checks < deep.BP.nodes)

let test_relax_still_prunes () =
  let o, s = bp_relax_solve ~jobs:1 sphere_cap_text in
  check bool_t "sphere cap unsat" true (o = BP.Unsat);
  check bool_t "relaxation prunes" true (s.BP.relax_pruned > 0)

(* ------------------------------------------------------------------ *)
(* Outward rounding of cut constants to short dyadics.                 *)

module B = Absolver_numeric.Bigint

(* Significant bits of a dyadic (odd part of the numerator); fails the
   test if the denominator is not a power of two. *)
let dyadic_bits q =
  let den = Q.den q in
  if not (B.equal den (B.shift_left B.one (B.num_bits den - 1))) then
    Alcotest.failf "%s is not dyadic" (Q.to_string q);
  let rec odd n =
    if B.is_zero n || not (B.is_even n) then n else odd (B.div n B.two)
  in
  B.num_bits (odd (B.abs (Q.num q)))

let bits = 24

let check_rounding q =
  let lo = Q.round_dyadic `Down ~bits q and hi = Q.round_dyadic `Up ~bits q in
  let show = Q.to_string q in
  if Q.compare lo q > 0 then Alcotest.failf "Down above %s" show;
  if Q.compare hi q < 0 then Alcotest.failf "Up below %s" show;
  if dyadic_bits lo > bits || dyadic_bits hi > bits then
    Alcotest.failf "rounding of %s is longer than %d bits" show bits;
  (* Nearest on each side: the two results are at most one step of the
     24-bit grid apart, and a step is at most |q| * 2^-23. *)
  if
    Q.compare (Q.sub hi lo)
      (Q.mul (Q.abs q) (Q.make B.one (B.shift_left B.one (bits - 1))))
    > 0
  then Alcotest.failf "rounding of %s is not the nearest" show

let test_round_dyadic () =
  let st = Random.State.make [| 0x5eed; 24 |] in
  let big_int () =
    (* up to ~150-bit integers, built from random 30-bit limbs *)
    let limbs = 1 + Random.State.int st 5 in
    let rec go acc k =
      if k = 0 then acc
      else
        go
          (B.add (B.shift_left acc 30) (B.of_int (Random.State.bits st)))
          (k - 1)
    in
    B.add (go B.zero limbs) B.one
  in
  let scales =
    [
      Q.one; Q.of_float 1e-300; Q.of_float 1e300; Q.of_ints 1 3; Q.of_float 1e-7;
    ]
  in
  for _ = 1 to 400 do
    let q = Q.make (big_int ()) (big_int ()) in
    let q = if Random.State.bool st then Q.neg q else q in
    let scale = List.nth scales (Random.State.int st (List.length scales)) in
    check_rounding (Q.mul q scale)
  done;
  (* Small machine-word values and the float constants cuts are made
     from. *)
  for _ = 1 to 400 do
    check_rounding
      (Q.of_ints
         (Random.State.int st 2_000_001 - 1_000_000)
         (1 + Random.State.int st 999_983));
    check_rounding (Q.of_float (Random.State.float st 200.0 -. 100.0));
    (* dyadics just longer than the target: 25- to 30-bit odd parts *)
    check_rounding
      (Q.of_ints
         ((1 lsl (24 + Random.State.int st 6)) lor 1)
         (1 lsl Random.State.int st 40))
  done;
  (* Already-short dyadics come back unchanged, on both sides. *)
  List.iter
    (fun q ->
      check bool_t ("unchanged Down " ^ Q.to_string q) true
        (Q.equal (Q.round_dyadic `Down ~bits q) q);
      check bool_t ("unchanged Up " ^ Q.to_string q) true
        (Q.equal (Q.round_dyadic `Up ~bits q) q))
    [
      Q.zero;
      Q.of_int 5;
      Q.of_int (-(1 lsl 40));
      Q.of_ints 3 1024;
      Q.of_ints (-((1 lsl 24) - 1)) 8;
      Q.of_float 0.1 |> Q.round_dyadic `Up ~bits;
      Q.make B.one (B.shift_left B.one 1000);
    ];
  (* 1 + 2^-30 needs 31 bits: it rounds to 1 and 1 + 2^-23. *)
  let q = Q.add Q.one (Q.make B.one (B.shift_left B.one 30)) in
  let step_up = Q.add Q.one (Q.of_ints 1 (1 lsl 23)) in
  check bool_t "1 + 2^-30 down" true
    (Q.equal (Q.round_dyadic `Down ~bits q) Q.one);
  check bool_t "1 + 2^-30 up" true (Q.equal (Q.round_dyadic `Up ~bits q) step_up);
  check bool_t "-(1 + 2^-30) down" true
    (Q.equal (Q.round_dyadic `Down ~bits (Q.neg q)) (Q.neg step_up))

(* ------------------------------------------------------------------ *)
(* The engine option and stats plumbing.                               *)

let test_relax_counters_surface () =
  let p = parse steering_text in
  let r_on, st_on =
    A.Engine.solve
      ~options:{ A.Engine.default_options with A.Engine.use_bp_relaxation = true }
      p
  in
  let r_off, st_off =
    A.Engine.solve
      ~options:{ A.Engine.default_options with A.Engine.use_bp_relaxation = false }
      p
  in
  check bool_t "unsat on" true (r_on = A.Engine.R_unsat);
  check bool_t "unsat off" true (r_off = A.Engine.R_unsat);
  check bool_t "cuts asserted" true (st_on.A.Engine.relax_cuts_asserted > 0);
  check bool_t "lp checks ran" true (st_on.A.Engine.relax_lp_checks > 0);
  check int_t "no cuts when off" 0 st_off.A.Engine.relax_cuts_asserted;
  check int_t "no checks when off" 0 st_off.A.Engine.relax_lp_checks

let suite =
  [
    Alcotest.test_case "enclosure brackets rational ops exactly" `Quick
      test_enclosure_rational;
    Alcotest.test_case "enclosure brackets transcendentals" `Quick
      test_enclosure_transcendental;
    Alcotest.test_case "cuts over-approximate atoms at feasible points"
      `Quick test_cut_soundness;
    Alcotest.test_case "octagon closure bounds" `Quick test_octagon_bounds;
    Alcotest.test_case "octagon negative cycle" `Quick
      test_octagon_negative_cycle;
    Alcotest.test_case "octagonal strengthening" `Quick
      test_octagon_strengthening;
    Alcotest.test_case "scoped session push/assert/pop" `Quick
      test_scoped_session;
    Alcotest.test_case "scoped optimization" `Quick test_scoped_optimize;
    Alcotest.test_case "solve rejected in scope mode" `Quick
      test_solve_rejected_in_scope_mode;
    Alcotest.test_case "differential relax on/off, jobs 1" `Slow
      test_differential_jobs1;
    Alcotest.test_case "differential relax on/off, jobs 4" `Slow
      test_differential_jobs4;
    Alcotest.test_case "relaxation counters surface in run_stats" `Quick
      test_relax_counters_surface;
    Alcotest.test_case "oracle backoff: same tree at jobs 1 and 4" `Quick
      test_backoff_parity;
    Alcotest.test_case "relaxation still prunes the sphere cap" `Quick
      test_relax_still_prunes;
    Alcotest.test_case "outward rounding to short dyadics" `Quick
      test_round_dyadic;
  ]
