(* Linear relaxation of nonlinear atoms for the branch-and-prune search.

   Given the current box, every nonlinear atom gets a sound linear
   enclosure — McCormick envelopes for products/quotients/powers,
   convexity-aware secant and tangent chords for the unary operators,
   centered forms where the curvature is mixed — and the resulting cut
   rows are asserted into a warm [Incremental] LP session as one scope
   per consulted node.  LP infeasible => the node is pruned before
   HC4/Newton run; LP feasible => the optimum tightens the k most
   influential variable bounds (OBBT).
   An octagon middle tier screens the +-x +- y <= c subset of the cuts
   before any pivot runs.

   Two soundness rules shape everything below:

   - every constant that enters a cut is derived either exactly (floats
     are dyadic rationals) or from an outward-rounded interval enclosure
     ([Interval] ops, [Expr.enclose_at]), never from bare float
     arithmetic;
   - cuts are slackened by the branch-and-prune feasibility tolerance, so
     an LP refutation proves the box holds no point that is
     tolerance-feasible, let alone exactly feasible.  Pruning therefore
     never flips an [Approx_sat]/[Unsat] verdict against the
     relaxation-off search.

   Cost: every cut and bound constant is rounded outward to a dyadic with
   [const_bits] significant bits, so the exact arithmetic downstream
   (enclosure composition, octagon closure, pivots) stays on the
   small-integer rational path; and branch-and-prune consults the oracle
   on a per-path backoff (see [Branch_prune.consult_relax]), so deep
   subtrees where the relaxation neither prunes nor tightens stop paying
   for it.

   Determinism: the per-node decision is a function of the node's depth
   and box only.  Both search modes drive the same code, and the simplex
   is complete, so warm-start differences can never change a verdict
   (only pivot counts). *)

module Q = Absolver_numeric.Rational
module I = Absolver_numeric.Interval
module DR = Absolver_numeric.Delta_rational
module Linexpr = Absolver_lp.Linexpr
module Incremental = Absolver_lp.Incremental
module Expr = Absolver_nlp.Expr
module Box = Absolver_nlp.Box
module BP = Absolver_nlp.Branch_prune
module Budget = Absolver_resource.Budget
module Telemetry = Absolver_telemetry.Telemetry

let finite = Float.is_finite
let q_exact f = Q.of_float f (* exact: every finite float is dyadic *)

(* Cut constants are rounded outward to dyadics with this many
   significant bits.  Raw float-derived constants (box ends, enclosure
   endpoints, the tolerance) are 53-bit dyadics with wide exponents whose
   sums overflow the native-int rationals into [Bigint]; 24 bits keep
   them short.  Rounding a constant outward only weakens its row, so
   every rounded cut stays implied by the atom it came from. *)
let const_bits = 24

let round_out dir q = Q.round_dyadic dir ~bits:const_bits q
let q_down f = round_out `Down (q_exact f)
let q_up f = round_out `Up (q_exact f)

(* ------------------------------------------------------------------ *)
(* Directed dyadic quantization                                        *)
(* ------------------------------------------------------------------ *)

(* Envelope slopes are rounded to 12 significant bits so that nearby
   boxes produce byte-identical coefficient vectors: [Simplex.define]
   memoizes slack rows by the constant-free expression, so quantized
   cuts from thousands of sibling nodes share tableau rows instead of
   growing the tableau per node.  Directions matter for soundness where
   the quantized value stands for a range endpoint (McCormick corners):
   lower endpoints round down, upper endpoints round up.  The result is
   always an exactly representable dyadic, so [Q.of_float] is exact. *)
let mant_scale = Float.ldexp 1.0 12

let quantize dir f =
  if (not (finite f)) || f = 0.0 then f
  else
    let m, e = Float.frexp f in
    let s = m *. mant_scale in
    let r =
      match dir with
      | `Down -> Float.floor s
      | `Up -> Float.ceil s
      | `Near -> Float.round s
    in
    Float.ldexp (r /. mant_scale) e

(* ------------------------------------------------------------------ *)
(* Linear enclosures                                                   *)
(* ------------------------------------------------------------------ *)

type enclosure = {
  enc_lo : Linexpr.t option; (* for every x in the box: enc_lo(x) <= e(x) *)
  enc_hi : Linexpr.t option; (* ... e(x) <= enc_hi(x) *)
  enc_rng : I.t; (* interval range of e over the box *)
}

(* Evaluation context for one node: the box's interval environment and
   the float midpoint used to choose between candidate envelope facets.
   The choice is a heuristic — both candidates are sound bounds — so
   float evaluation is fine; it is still deterministic. *)
type ctx = { env : int -> I.t; mid : int -> float }

let const_enc q =
  let le = Linexpr.constant q in
  { enc_lo = Some le; enc_hi = Some le; enc_rng = I.of_rational q }

(* Any side the structural rules could not produce falls back to the
   interval range as a constant bound (interval linearization: freeze
   every variable at its range). *)
let with_range_fallback e =
  let side sel round v =
    match sel with
    | Some _ as s -> s
    | None -> if finite v then Some (Linexpr.constant (round v)) else None
  in
  {
    e with
    enc_lo = side e.enc_lo q_down e.enc_rng.I.lo;
    enc_hi = side e.enc_hi q_up e.enc_rng.I.hi;
  }

let neg_enc e =
  {
    enc_lo = Option.map Linexpr.neg e.enc_hi;
    enc_hi = Option.map Linexpr.neg e.enc_lo;
    enc_rng = I.neg e.enc_rng;
  }

let add_enc a b =
  let side x y =
    match (x, y) with Some u, Some v -> Some (Linexpr.add u v) | _ -> None
  in
  {
    enc_lo = side a.enc_lo b.enc_lo;
    enc_hi = side a.enc_hi b.enc_hi;
    enc_rng = I.add a.enc_rng b.enc_rng;
  }

let scale_enc q e =
  let sc = Option.map (Linexpr.scale q) in
  let rng = I.mul (I.of_rational q) e.enc_rng in
  if Q.sign q >= 0 then { enc_lo = sc e.enc_lo; enc_hi = sc e.enc_hi; enc_rng = rng }
  else { enc_lo = sc e.enc_hi; enc_hi = sc e.enc_lo; enc_rng = rng }

(* Sound bound of [sum_i c_i * e_i + k] composed through sub-enclosures:
   each term picks the side matching the sign of its coefficient.  The
   constant is rounded outward (up for an upper bound, down for a lower
   one), which only loosens the bound. *)
let comb ~upper terms k =
  let dir = if upper then `Up else `Down in
  let rec go acc = function
    | [] -> Some (Linexpr.set_const acc (round_out dir (Linexpr.const acc)))
    | (c, e) :: rest -> (
      let side = if Q.sign c >= 0 <> upper then e.enc_lo else e.enc_hi in
      match side with
      | None -> None
      | Some le -> go (Linexpr.add acc (Linexpr.scale c le)) rest)
  in
  go (Linexpr.constant k) terms

let eval_at mid le =
  List.fold_left
    (fun acc (v, q) -> acc +. (Q.to_float q *. mid v))
    (Q.to_float (Linexpr.const le))
    (Linexpr.coeffs le)

let pick ~upper mid a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some la, Some lb ->
    let c = Float.compare (eval_at mid la) (eval_at mid lb) in
    Some (if (c >= 0) <> upper then la else lb)

(* McCormick envelope of a product, composed through the factors' own
   enclosures.  The corner constants are the factors' range endpoints,
   outward-quantized — (a - aL)(b - bL) >= 0 stays valid for any aL, bL
   below the true range, so rounding the corners outward preserves
   soundness while sharing slack rows across nodes. *)
let mccormick mid a b =
  let rng = I.mul a.enc_rng b.enc_rng in
  let ra = a.enc_rng and rb = b.enc_rng in
  if
    not
      (finite ra.I.lo && finite ra.I.hi && finite rb.I.lo && finite rb.I.hi)
  then with_range_fallback { enc_lo = None; enc_hi = None; enc_rng = rng }
  else begin
    let al = q_exact (quantize `Down ra.I.lo)
    and au = q_exact (quantize `Up ra.I.hi)
    and bl = q_exact (quantize `Down rb.I.lo)
    and bu = q_exact (quantize `Up rb.I.hi) in
    let lo1 = comb ~upper:false [ (bl, a); (al, b) ] (Q.neg (Q.mul al bl))
    and lo2 = comb ~upper:false [ (bu, a); (au, b) ] (Q.neg (Q.mul au bu))
    and hi1 = comb ~upper:true [ (bu, a); (al, b) ] (Q.neg (Q.mul al bu))
    and hi2 = comb ~upper:true [ (bl, a); (au, b) ] (Q.neg (Q.mul au bl)) in
    with_range_fallback
      {
        enc_lo = pick ~upper:false mid lo1 lo2;
        enc_hi = pick ~upper:true mid hi1 hi2;
        enc_rng = rng;
      }
  end

(* Curvature of a unary operator over the inner range. *)
type shape = Convex | Concave | Mixed

let shape_of_second d2 =
  if I.is_empty d2 then Mixed
  else if d2.I.lo >= 0.0 then Convex
  else if d2.I.hi <= 0.0 then Concave
  else Mixed

(* Sound linear enclosure of [f (g)] over the box, where [fi]/[di] are
   interval extensions of f and f'.

   - Secant side (convex upper / concave lower): for convex f and any
     slope s, f - s*x is convex, so its maximum over [xl, xu] sits at an
     endpoint; the intercept is the endpoint-max of rigorous point
     enclosures of f.  Mirrored for concave f.
   - Tangent / centered side: f(x) = f(m) + f'(xi)(x - m) for some xi
     between m and x, so with any slope s,
     f(x) >= lo(f(m)) + s*(x - m) + lo((D - s) * (r - m)) where D
     encloses f' at m (convex/concave tangent, by the gradient
     inequality) or over the whole range (mixed curvature, by the mean
     value theorem).  All error terms are evaluated in outward-rounded
     interval arithmetic; if a derivative blows up (log/sqrt near 0) the
     side is dropped and the range fallback takes over. *)
let unary g ~fi ~di ~shape =
  let r = g.enc_rng in
  let rng = fi r in
  if I.is_empty r || I.is_empty rng then
    { enc_lo = None; enc_hi = None; enc_rng = rng }
  else if not (finite r.I.lo && finite r.I.hi) then
    with_range_fallback { enc_lo = None; enc_hi = None; enc_rng = rng }
  else begin
    let xl = r.I.lo and xu = r.I.hi in
    let m =
      let mq = quantize `Near (I.mid r) in
      if mq < xl || mq > xu then I.mid r else mq
    in
    let fm = fi (I.of_float m) in
    let line ~upper s_f c =
      (* the cut s*g + c, composed through g's enclosure *)
      comb ~upper [ (q_exact s_f, g) ] c
    in
    let centered ~upper dint =
      if I.is_empty fm || I.is_empty dint then None
      else if not (finite dint.I.lo && finite dint.I.hi) then None
      else begin
        let s_f = quantize `Near (I.mid dint) in
        let err =
          I.mul (I.sub dint (I.of_float s_f)) (I.sub r (I.of_float m))
        in
        let fm_v = if upper then fm.I.hi else fm.I.lo
        and err_v = if upper then err.I.hi else err.I.lo in
        if not (finite fm_v && finite err_v) then None
        else
          let c =
            Q.sub
              (Q.add (q_exact fm_v) (q_exact err_v))
              (Q.mul (q_exact s_f) (q_exact m))
          in
          line ~upper s_f c
      end
    in
    let secant ~upper =
      let fl = fi (I.of_float xl) and fu = fi (I.of_float xu) in
      if I.is_empty fl || I.is_empty fu || xu <= xl then None
      else begin
        let fl_v = if upper then fl.I.hi else fl.I.lo
        and fu_v = if upper then fu.I.hi else fu.I.lo in
        if not (finite fl_v && finite fu_v) then None
        else begin
          let s_f = quantize `Near ((fu_v -. fl_v) /. (xu -. xl)) in
          if not (finite s_f) then None
          else
            let s = q_exact s_f in
            let cl = Q.sub (q_exact fl_v) (Q.mul s (q_exact xl))
            and cu = Q.sub (q_exact fu_v) (Q.mul s (q_exact xu)) in
            let c = if upper then Q.max cl cu else Q.min cl cu in
            line ~upper s_f c
        end
      end
    in
    let or_else a b = match a with Some _ -> a | None -> b () in
    let dm () = di (I.of_float m) and dr () = di r in
    let enc_lo, enc_hi =
      match shape with
      | Convex ->
        ( or_else (centered ~upper:false (dm ())) (fun () ->
              centered ~upper:false (dr ())),
          secant ~upper:true )
      | Concave ->
        ( secant ~upper:false,
          or_else (centered ~upper:true (dm ())) (fun () ->
              centered ~upper:true (dr ())) )
      | Mixed -> (centered ~upper:false (dr ()), centered ~upper:true (dr ()))
    in
    with_range_fallback { enc_lo; enc_hi; enc_rng = rng }
  end

let pow_shape n (r : I.t) =
  if n >= 2 then
    if n land 1 = 0 then Convex
    else if r.I.lo >= 0.0 then Convex
    else if r.I.hi <= 0.0 then Concave
    else Mixed
  else if r.I.lo > 0.0 then Convex
  else if r.I.hi < 0.0 then if n land 1 = 0 then Convex else Concave
  else Mixed (* range touches 0: the derivative enclosure is infinite *)

let pow_enc g n =
  let fi iv = I.pow_int iv n in
  let di iv = I.mul (I.of_float (float_of_int n)) (I.pow_int iv (n - 1)) in
  unary g ~fi ~di ~shape:(pow_shape n g.enc_rng)

(* Affine subterms — [Const], [Var], [Neg], [Add], [Sub], constant
   [Mul] — compose exactly through their structural rules (both sides of
   the enclosure coincide), so no separate linearization pass is needed:
   attempting [Expr.linearize] at every recursion level would make the
   walk quadratic in the atom size. *)
let rec enclose ctx (e : Expr.t) : enclosure =
  match e with
  | Expr.Const q -> const_enc q
  | Expr.Var v ->
    let le = Some (Linexpr.var v) in
    { enc_lo = le; enc_hi = le; enc_rng = ctx.env v }
  | Expr.Neg a -> neg_enc (enclose ctx a)
  | Expr.Add (a, b) -> add_enc (enclose ctx a) (enclose ctx b)
  | Expr.Sub (a, b) -> add_enc (enclose ctx a) (neg_enc (enclose ctx b))
  | Expr.Mul (Expr.Const q, b) | Expr.Mul (b, Expr.Const q) ->
    scale_enc q (enclose ctx b)
  | Expr.Mul (a, b) -> mccormick ctx.mid (enclose ctx a) (enclose ctx b)
  | Expr.Div (a, b) ->
    let ea = enclose ctx a and eb = enclose ctx b in
    if I.strictly_positive eb.enc_rng || I.strictly_negative eb.enc_rng
    then
      (* a * (1/b): the reciprocal is convex or concave away from 0. *)
      mccormick ctx.mid ea (pow_enc eb (-1))
    else
      with_range_fallback
        { enc_lo = None; enc_hi = None; enc_rng = I.div ea.enc_rng eb.enc_rng }
  | Expr.Pow (_, 0) -> const_enc Q.one
  | Expr.Pow (a, 1) -> enclose ctx a
  | Expr.Pow (a, n) -> pow_enc (enclose ctx a) n
  | Expr.Sqrt a ->
    let g = enclose ctx a in
    unary g ~fi:I.sqrt
      ~di:(fun iv -> I.inv (I.mul (I.of_float 2.0) (I.sqrt iv)))
      ~shape:Concave
  | Expr.Exp a ->
    unary (enclose ctx a) ~fi:I.exp ~di:I.exp ~shape:Convex
  | Expr.Log a ->
    unary (enclose ctx a) ~fi:I.log ~di:I.inv ~shape:Concave
  | Expr.Sin a ->
    (* Range splitting through the search: once bisection narrows the
       inner range to one curvature regime (sin'' = -sin has constant
       sign), the chord machinery applies; otherwise centered form. *)
    let g = enclose ctx a in
    unary g ~fi:I.sin ~di:I.cos
      ~shape:(shape_of_second (I.neg (I.sin g.enc_rng)))
  | Expr.Cos a ->
    let g = enclose ctx a in
    unary g ~fi:I.cos
      ~di:(fun iv -> I.neg (I.sin iv))
      ~shape:(shape_of_second (I.neg (I.cos g.enc_rng)))

(* ------------------------------------------------------------------ *)
(* Cuts                                                                *)
(* ------------------------------------------------------------------ *)

let bounds_tag = -2 (* cf. Ab_problem.bounds_tag *)

(* Normalize a row so its leading coefficient is exactly [1]: dividing
   [expr op 0] by a positive constant (flipping the relation for a
   negative one) preserves its solution set.  Single-variable rows then
   map to the variable itself inside [Simplex.define] — a plain bound
   assertion, no tableau row — and multi-variable rows that differ only
   by scale share one slack row.  Without this, every distinct envelope
   slope would permanently grow the warm session's tableau. *)
let normalize_cons (c : Linexpr.cons) =
  match Linexpr.coeffs c.expr with
  | [] -> c
  | (_, c0) :: _ when Q.equal c0 Q.one -> c
  | (_, c0) :: _ ->
    let expr = Linexpr.scale (Q.inv (Q.abs c0)) c.expr in
    if Q.sign c0 > 0 then { c with expr }
    else
      let op =
        match c.op with
        | Linexpr.Le -> Linexpr.Ge
        | Linexpr.Lt -> Linexpr.Gt
        | Linexpr.Ge -> Linexpr.Le
        | Linexpr.Gt -> Linexpr.Lt
        | Linexpr.Eq -> Linexpr.Eq
      in
      { c with expr = Linexpr.neg expr; op }

(* Round the constant of a normalized row outward: [L + k <= 0] is
   loosened by lowering k, [L + k >= 0] by raising it.  Equalities are
   left alone (no rounding loosens them); [atom_cuts] never makes one. *)
let round_row (c : Linexpr.cons) =
  let k = Linexpr.const c.expr in
  let k' =
    match c.op with
    | Linexpr.Le | Linexpr.Lt -> round_out `Down k
    | Linexpr.Ge | Linexpr.Gt -> round_out `Up k
    | Linexpr.Eq -> k
  in
  if k' == k then c else { c with expr = Linexpr.set_const c.expr k' }

(* Slacken a linear lower/upper enclosure of an atom [e op 0] by the
   feasibility tolerance: a tolerance-feasible point has e(x) <= tol
   (Le/Lt), e(x) >= -tol (Ge/Gt) or |e(x)| <= tol (Eq), and the
   enclosure brackets e, so the slackened rows are implied.  Strict
   relations are relaxed to their closed forms — weaker, hence sound. *)
let atom_cuts ~slack (op : Linexpr.op) ~tag lo hi =
  let mk_le le =
    round_row
      (normalize_cons
         {
           Linexpr.expr = Linexpr.set_const le (Q.sub (Linexpr.const le) slack);
           op = Linexpr.Le;
           tag;
         })
  and mk_ge le =
    round_row
      (normalize_cons
         {
           Linexpr.expr = Linexpr.set_const le (Q.add (Linexpr.const le) slack);
           op = Linexpr.Ge;
           tag;
         })
  in
  match op with
  | Linexpr.Le | Linexpr.Lt ->
    Option.to_list (Option.map mk_le lo)
  | Linexpr.Ge | Linexpr.Gt ->
    Option.to_list (Option.map mk_ge hi)
  | Linexpr.Eq ->
    Option.to_list (Option.map mk_le lo) @ Option.to_list (Option.map mk_ge hi)

(* Box bounds as rows, so the LP sees the node's domain.  Bound rows are
   1*x expressions: [Simplex.define] maps them to the variable itself,
   so they never grow the tableau.  The ends are rounded outward to
   short dyadics like every other cut constant. *)
let bound_cuts vars box =
  List.concat_map
    (fun v ->
      let iv = Box.get box v in
      (if finite iv.I.lo then
         [
           {
             Linexpr.expr = Linexpr.of_list [ (Q.one, v) ] (Q.neg (q_down iv.I.lo));
             op = Linexpr.Ge;
             tag = bounds_tag;
           };
         ]
       else [])
      @
      if finite iv.I.hi then
        [
          {
            Linexpr.expr = Linexpr.of_list [ (Q.one, v) ] (Q.neg (q_up iv.I.hi));
            op = Linexpr.Le;
            tag = bounds_tag;
          };
        ]
      else [])
    vars

(* Constant rows never reach the tableau: a violated one refutes the
   node outright, a satisfied one is dropped. *)
let screen_cuts cuts =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | (c : Linexpr.cons) :: rest ->
      if Linexpr.is_constant c.expr then
        if Linexpr.holds (fun _ -> Q.zero) c then go acc rest else None
      else go (c :: acc) rest
  in
  go [] cuts

let ctx_of_box box =
  let mid v =
    let iv = Box.get box v in
    if I.is_empty iv then 0.0 else I.mid iv
  in
  { env = Box.env box; mid }

let cuts_of_rel ~slack ~box (r : Expr.rel) =
  match Expr.linearize r.Expr.expr with
  | Some le ->
    atom_cuts ~slack r.Expr.op ~tag:r.Expr.tag (Some le) (Some le)
  | None ->
    let e = enclose (ctx_of_box box) r.Expr.expr in
    atom_cuts ~slack r.Expr.op ~tag:r.Expr.tag e.enc_lo e.enc_hi

let enclose_expr ~box e = enclose (ctx_of_box box) e

(* ------------------------------------------------------------------ *)
(* Octagon middle tier                                                 *)
(* ------------------------------------------------------------------ *)

(* Harvest the +-x +- y <= c subset of the cuts (after normalizing every
   row to [expr <= 0] form); refute on negative cycle or feed tightened
   unary bounds back into the box.  Everything here is a function of the
   cuts and the box, so the step is deterministic.

   Cost control: the cubic closure runs only over the variables that
   occur in a {e binary} harvested row — unary rows alone cannot create
   any indirect deduction, so when no binary row exists (the common case:
   bound rows and most envelope cuts are unary or many-variable) the
   harvest collapses to a per-variable min over the unary constants.
   Without this restriction a 50-variable problem pays a million-step
   rational Floyd-Warshall per search node. *)
let octagon_step box cuts =
  let unary = ref [] and binary = ref [] in
  let harvest_row le =
    let k = Linexpr.const le in
    match Linexpr.coeffs le with
    | [ (v, a) ] ->
      unary := (v, Q.sign a > 0, Q.neg (Q.div k (Q.abs a))) :: !unary
    | [ (u, a); (v, b) ] when Q.equal (Q.abs a) (Q.abs b) ->
      binary :=
        (u, Q.sign a > 0, v, Q.sign b > 0, Q.neg (Q.div k (Q.abs a)))
        :: !binary
    | _ -> ()
  in
  List.iter
    (fun (c : Linexpr.cons) ->
      match c.op with
      | Linexpr.Le | Linexpr.Lt -> harvest_row c.expr
      | Linexpr.Ge | Linexpr.Gt -> harvest_row (Linexpr.neg c.expr)
      | Linexpr.Eq ->
        harvest_row c.expr;
        harvest_row (Linexpr.neg c.expr))
    cuts;
  (* Tightest per-variable (lo, hi) implied by the unary rows alone. *)
  let unary_bounds () =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (v, pos, c) ->
        let lo, hi =
          Option.value (Hashtbl.find_opt tbl v) ~default:(None, None)
        in
        let entry =
          if pos then
            (lo, Some (match hi with None -> c | Some h -> Q.min h c))
          else
            (* -x <= c, i.e. x >= -c *)
            let l = Q.neg c in
            ( (match lo with None -> Some l | Some l0 -> Some (Q.max l0 l)),
              hi )
        in
        Hashtbl.replace tbl v entry)
      !unary;
    Hashtbl.fold (fun v (lo, hi) acc -> (v, lo, hi) :: acc) tbl []
    |> List.sort compare
  in
  (* Intersect [bnds] (sparse rational bounds per variable) into the box. *)
  let apply bnds =
    let tightened = ref 0 and empty = ref false in
    List.iter
      (fun (v, lo, hi) ->
        if not !empty then begin
          let iv = Box.get box v in
          let niv = I.inter iv (I.of_rational_bounds lo hi) in
          if I.is_empty niv then empty := true
          else if not (I.equal niv iv) then begin
            Box.set box v niv;
            incr tightened
          end
        end)
      bnds;
    if !empty then `Prune else `Tightened !tightened
  in
  if !binary = [] then
    (* Unary-only fast path: fold each variable's tightest upper and
       lower constants; no closure can add anything. *)
    apply (unary_bounds ())
  else begin
    (* Close only over the variables reached by binary rows (plus their
       unary bounds); every other variable's unary rows go through the
       fast path above anyway on the next node. *)
    let involved = Hashtbl.create 16 in
    List.iter
      (fun (u, _, v, _, _) ->
        Hashtbl.replace involved u ();
        Hashtbl.replace involved v ())
      !binary;
    let vars =
      Hashtbl.fold (fun v () acc -> v :: acc) involved [] |> List.sort compare
    in
    let index = Hashtbl.create 16 in
    List.iteri (fun i v -> Hashtbl.replace index v i) vars;
    let n = List.length vars in

    let oct = Octagon.create n in
    List.iter
      (fun (v, pos, c) ->
        match Hashtbl.find_opt index v with
        | Some i -> Octagon.add1 oct i ~pos c
        | None -> ())
      !unary;
    List.iter
      (fun (u, upos, v, vpos, c) ->
        match (Hashtbl.find_opt index u, Hashtbl.find_opt index v) with
        | Some i, Some j when i <> j -> Octagon.add2 oct i ~upos j ~vpos c
        | _ -> ())
      !binary;
    (* Also give the closure the box bounds of the involved variables, so
       +-x +- y rows can actually refute against the domain. *)
    List.iter
      (fun v ->
        let i = Hashtbl.find index v in
        let iv = Box.get box v in
        if finite iv.I.hi then Octagon.add1 oct i ~pos:true (q_up iv.I.hi);
        if finite iv.I.lo then
          Octagon.add1 oct i ~pos:false (Q.neg (q_down iv.I.lo)))
      vars;
    if not (Octagon.close oct) then `Prune
    else begin
      (* Closed octagon bounds for the involved variables, plus the
         unary fast path for the rest. *)
      let oct_bnds =
        List.mapi
          (fun i v ->
            let lo, hi = Octagon.bounds oct i in
            (v, lo, hi))
          vars
      in
      let rest =
        List.filter (fun (v, _, _) -> not (Hashtbl.mem involved v))
          (unary_bounds ())
      in
      apply (oct_bnds @ rest)
    end
  end

(* ------------------------------------------------------------------ *)
(* The oracle                                                          *)
(* ------------------------------------------------------------------ *)

type state = {
  mutable sess : Incremental.t;
  mutable asserted_total : int; (* scope_asserts since session creation *)
  atom_cache : (I.t array * Linexpr.cons list) option array;
      (* per nonlinear atom: variable intervals + cuts of the last
         enclosure computed on this domain *)
}

let fresh_session () =
  (* No float filter: relax sessions accumulate a slack row per distinct
     quantized cut, and the filter's dense float shadow is quadratic in
     the variable count — the exact check on a warm basis needs only a
     handful of pivots per node.  No verdict cache either: scoped checks
     never consult it. *)
  Incremental.create ~cache_capacity:0 ~float_filter:false ()

let oracle ?(telemetry = Telemetry.disabled) ~(config : BP.config) ~nvars:_ rels
    =
  let slack = q_up config.tol in
  (* Static per-atom preparation: linear atoms produce box-independent
     cuts once (asserted at the root node); nonlinear atoms are
     re-enclosed per node. *)
  let atoms =
    List.map
      (fun (r : Expr.rel) ->
        match Expr.linearize r.Expr.expr with
        | Some le ->
          `Lin (atom_cuts ~slack r.Expr.op ~tag:r.Expr.tag (Some le) (Some le))
        | None -> `Nl r)
      rels
  in
  let all_vars =
    List.sort_uniq compare
      (List.concat_map (fun (r : Expr.rel) -> Expr.vars r.Expr.expr) rels)
  in
  let obbt_vars =
    List.sort_uniq compare
      (List.concat_map
         (function `Nl (r : Expr.rel) -> Expr.vars r.Expr.expr | `Lin _ -> [])
         atoms)
  in
  let atom_arr = Array.of_list atoms in
  let atom_vars =
    Array.map
      (function
        | `Nl (r : Expr.rel) ->
          Array.of_list (List.sort_uniq compare (Expr.vars r.Expr.expr))
        | `Lin _ -> [||])
      atom_arr
  in
  let rx_cuts = Atomic.make 0
  and rx_lp_checks = Atomic.make 0
  and rx_pruned = Atomic.make 0
  and rx_oct_pruned = Atomic.make 0
  and rx_tightened = Atomic.make 0
  and rx_obbt = Atomic.make 0 in
  (* Budget exhaustion mid-LP disables the oracle for the rest of the
     solve (the search itself trips on its next tick; under an exhausted
     budget schedule independence is already waived). *)
  let disabled = Atomic.make false in
  (* One warm session per worker domain, created lazily.  A mutex-guarded
     table rather than Domain.DLS: oracles are created per solve call and
     DLS keys are never reclaimed. *)
  let states : (Domain.id, state) Hashtbl.t = Hashtbl.create 8 in
  let states_mutex = Mutex.create () in
  let state_for () =
    let id = Domain.self () in
    Mutex.protect states_mutex (fun () ->
        match Hashtbl.find_opt states id with
        | Some s -> s
        | None ->
          let s =
            {
              sess = fresh_session ();
              asserted_total = 0;
              atom_cache = Array.make (Array.length atom_arr) None;
            }
          in
          Hashtbl.add states id s;
          s)
  in
  let prune ~oct =
    Atomic.incr rx_pruned;
    if oct then Atomic.incr rx_oct_pruned;
    BP.Rx_prune
  in
  (* Optimization-based bounds tightening on the k widest variables
     occurring nonlinearly.  The gate is the node's depth, never a
     running counter, so the set of OBBT nodes is schedule-independent.
     Optimum values are exact; their rational part is rounded outward
     into float bounds through [I.of_rational_bounds]. *)
  let obbt st box =
    let scored =
      List.map (fun v -> (v, I.width (Box.get box v))) obbt_vars
    in
    let sorted =
      List.sort
        (fun (v1, w1) (v2, w2) ->
          match compare w2 w1 with 0 -> compare v1 v2 | c -> c)
        scored
    in
    let rec take n = function
      | [] -> []
      | x :: r -> if n <= 0 then [] else x :: take (n - 1) r
    in
    let chosen = take config.relax_obbt_vars sorted in
    let empty = ref false and tightened = ref false in
    List.iter
      (fun (v, w) ->
        if (not !empty) && w > 0.0 then begin
          Atomic.incr rx_obbt;
          Atomic.incr rx_obbt;
          let lo =
            match Incremental.scope_minimize st.sess (Linexpr.var v) with
            | Incremental.Opt_value d when Q.sign (DR.k d) >= 0 ->
              Some (DR.r d)
            | _ -> None
          and hi =
            match Incremental.scope_maximize st.sess (Linexpr.var v) with
            | Incremental.Opt_value d when Q.sign (DR.k d) <= 0 ->
              Some (DR.r d)
            | _ -> None
          in
          if lo <> None || hi <> None then begin
            let iv = Box.get box v in
            let niv = I.inter iv (I.of_rational_bounds lo hi) in
            if I.is_empty niv then empty := true
            else if not (I.equal niv iv) then begin
              Box.set box v niv;
              tightened := true;
              Atomic.incr rx_tightened
            end
          end
        end)
      chosen;
    if !empty then `Empty else `Done !tightened
  in
  let lp_node st ~budget ~depth ~cuts box =
    (* The session holds ONE scope: the current node's cuts.  Ancestor
       cuts are pointwise dominated inside the child box (envelopes are
       inclusion-monotone: a secant, tangent or McCormick facet computed
       on a sub-box is at least as tight at every point of it), so
       re-asserting them would only pin stale-slope rows in the tableau.
       Warm start comes from [Simplex.define]'s row sharing: the 12-bit
       slope quantization makes nearby boxes produce identical coefficient
       vectors, so a sibling's rows are usually already defined and only
       their bounds move.

       [Simplex.define] memoizes rows permanently — [pop] restores bounds
       but never shrinks the tableau — and every dead row keeps sitting in
       the occurrence lists its columns index, so pivot and bound updates
       slow down linearly with garbage.  As soon as the session carries
       any row beyond the live scope, drop it and start fresh
       (measured on the steering model this beats every laxer
       threshold).  Verdicts are unaffected (the exact check is
       complete), only warm-start cost. *)
    let live = List.length cuts in
    if st.asserted_total - live > 0 then begin
      st.sess <- fresh_session ();
      st.asserted_total <- 0
    end;
    Incremental.set_budget st.sess budget;
    if Incremental.open_scopes st.sess > 0 then Incremental.scope_pop st.sess;
    Incremental.scope_push st.sess;
    let conflict = ref false in
    List.iter
      (fun c ->
        if not !conflict then begin
          st.asserted_total <- st.asserted_total + 1;
          if not (Incremental.scope_assert st.sess c) then conflict := true
        end)
      cuts;
    if !conflict then prune ~oct:false
    else begin
      Atomic.incr rx_lp_checks;
      if not (Incremental.scope_check st.sess) then prune ~oct:false
      else if
        depth <= config.relax_obbt_depth
        && config.relax_obbt_vars > 0
        && obbt_vars <> []
      then
        match obbt st box with
        | `Empty -> prune ~oct:false
        | `Done true -> BP.Rx_tightened
        | `Done false -> BP.Rx_unchanged
      else BP.Rx_unchanged
    end
  in
  let rx_node ~budget ~depth box =
    if Atomic.get disabled || Box.is_empty box then BP.Rx_unchanged
    else begin
      let st = state_for () in
      let ctx = ctx_of_box box in
      (* Per-atom cut memo: a bisection (or an OBBT tightening) moves one
         or two variable ranges, so most atoms see the exact same
         sub-box as the previously visited node and their envelope —
         slopes and constants alike — is unchanged.  Reuse is keyed on
         the atom's own variable intervals, so a hit reproduces exactly
         what recomputation would: decisions stay a function of the box
         alone. *)
      let nl_cuts =
        Array.mapi
          (fun i a ->
            match a with
            | `Lin _ -> []
            | `Nl (r : Expr.rel) ->
              let vs = atom_vars.(i) in
              let snap = Array.map (fun v -> Box.get box v) vs in
              (match st.atom_cache.(i) with
              | Some (prev, cuts) when Array.for_all2 I.equal prev snap ->
                cuts
              | _ ->
                let e = enclose ctx r.Expr.expr in
                let cuts =
                  atom_cuts ~slack r.Expr.op ~tag:r.Expr.tag e.enc_lo
                    e.enc_hi
                in
                st.atom_cache.(i) <- Some (snap, cuts);
                cuts))
          atom_arr
      in
      let cuts =
        bound_cuts all_vars box
        @ (if depth = 0 then
             List.concat_map (function `Lin cs -> cs | `Nl _ -> []) atoms
           else [])
        @ List.concat (Array.to_list nl_cuts)
      in
      match screen_cuts cuts with
      | None -> prune ~oct:false
      | Some cuts -> (
        ignore (Atomic.fetch_and_add rx_cuts (List.length cuts));
        let oct_verdict =
          if config.relax_octagon then octagon_step box cuts
          else `Tightened 0
        in
        match oct_verdict with
        | `Prune -> prune ~oct:true
        | `Tightened nt -> (
          if nt > 0 then
            ignore (Atomic.fetch_and_add rx_tightened nt);
          let t0 = Telemetry.Clock.now () in
          match lp_node st ~budget ~depth ~cuts box with
          | decision ->
            Telemetry.observe telemetry "bp.relax.lp_time"
              (Telemetry.Clock.now () -. t0);
            if nt > 0 && decision = BP.Rx_unchanged then BP.Rx_tightened
            else decision
          | exception Budget.Exhausted _ ->
            Atomic.set disabled true;
            Telemetry.observe telemetry "bp.relax.lp_time"
              (Telemetry.Clock.now () -. t0);
            BP.Rx_unchanged))
    end
  in
  {
    BP.rx_node;
    rx_cuts;
    rx_lp_checks;
    rx_pruned;
    rx_oct_pruned;
    rx_tightened;
    rx_obbt;
  }
