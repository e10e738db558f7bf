(** Linear relaxation of nonlinear atoms for branch-and-prune.

    Builds sound linear enclosures of every nonlinear atom over the
    current box — McCormick envelopes for products, quotients and
    integer powers, convexity-directed secant/tangent chords for the
    unary operators ([exp], [log], [sqrt]), centered forms where the
    curvature is mixed, and range splitting through bisection for
    [sin]/[cos] — and turns them into cut rows for a warm
    {!Absolver_lp.Incremental} session, one scope per consulted node.

    The {!oracle} packages the whole pipeline behind
    {!Absolver_nlp.Branch_prune.relax_oracle}: per consulted node it
    screens constant cuts, runs the octagon middle tier, asserts the
    node's cuts as the session's single open scope, prunes on
    infeasibility and tightens bounds by OBBT near the root.  Every cut
    constant is rounded outward to a short dyadic
    ({!Absolver_numeric.Rational.round_dyadic}, 24 significant bits), so
    the exact arithmetic stays on native-int rationals.

    Soundness contract: every cut is implied by tolerance-feasibility of
    the original atom set inside the box (cuts are slackened by
    [config.tol], all constants derive from outward-rounded interval
    arithmetic or exact dyadic float conversion, then are rounded
    outward again).  A pruned box
    therefore contains no point the unrelaxed search could accept.
    Decisions are a function of the node's depth and box only, so
    sequential and parallel searches prune the same tree. *)

module Q = Absolver_numeric.Rational
module I = Absolver_numeric.Interval
module Linexpr = Absolver_lp.Linexpr
module Expr = Absolver_nlp.Expr
module Box = Absolver_nlp.Box
module BP = Absolver_nlp.Branch_prune
module Telemetry = Absolver_telemetry.Telemetry

(** {1 Enclosures}

    Exposed for the soundness test-suite; solver clients only need
    {!oracle}. *)

type enclosure = {
  enc_lo : Linexpr.t option;  (** [enc_lo(x) <= e(x)] for all [x] in the box *)
  enc_hi : Linexpr.t option;  (** [e(x) <= enc_hi(x)] for all [x] in the box *)
  enc_rng : I.t;  (** interval range of [e] over the box *)
}
(** A sound linear bracket of an expression over a box.  A side is
    [None] only when no finite bound exists (infinite range and
    unbounded envelope machinery). *)

val enclose_expr : box:Box.t -> Expr.t -> enclosure
(** Enclosure of an expression over a box. *)

val cuts_of_rel : slack:Q.t -> box:Box.t -> Expr.rel -> Linexpr.cons list
(** The (slackened) cut rows implied by one atom over a box: any point
    of the box satisfying the atom within [slack] tolerance satisfies
    every returned row.  Rows keep the atom's [tag]. *)

(** {1 The relaxation oracle} *)

val oracle :
  ?telemetry:Telemetry.t ->
  config:BP.config ->
  nvars:int ->
  Expr.rel list ->
  BP.relax_oracle
(** [oracle ~config ~nvars rels] builds a fresh relaxation oracle for
    one [Branch_prune.solve] call over [rels] (with [nvars] real
    variables).  The oracle owns one warm LP session per worker domain
    and must not be shared across solve calls.  Honors
    [config.relax_octagon], [config.relax_obbt_depth],
    [config.relax_obbt_vars] and slackens cuts by [config.tol].  LP time
    is recorded into the [bp.relax.lp_time] histogram of [telemetry];
    cut/prune/tighten counts accumulate in the oracle's atomic counters
    (see {!Absolver_nlp.Branch_prune.relax_stats}). *)
