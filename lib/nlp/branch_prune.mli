(** Interval branch-and-prune: the nonlinear feasibility oracle.

    This plays the role IPOPT [11] plays in the paper — deciding whether
    the conjunction of nonlinear constraints selected by a Boolean
    assignment is feasible, and producing a witness point. The paper's
    choice (a local interior-point method) can only answer "here is an
    approximately feasible point"; branch-and-prune answers that {e and}
    can prove infeasibility by exhaustion, which Table 1's
    [nonlinear_unsat] row needs (see DESIGN.md §3 for the substitution
    argument).

    Verdicts:
    - [Sat p]: every constraint is rigorously certified at [p] by interval
      evaluation;
    - [Approx_sat p]: [p] satisfies every constraint within [tol]
      (IPOPT-style tolerance answer; equalities usually land here);
    - [Unsat]: the search space was exhausted — no box survived pruning;
    - [Unknown]: node budget exhausted with no candidate point. *)

type outcome =
  | Sat of float array
  | Approx_sat of float array
  | Unsat
  | Unknown

type config = {
  eps : float; (** boxes narrower than this are not split further *)
  tol : float; (** feasibility tolerance for approximate answers *)
  max_nodes : int;
  use_hc4 : bool; (** ablation switch: contraction on/off *)
  use_newton : bool; (** ablation switch: univariate interval Newton *)
  samples_per_node : int;
      (** random feasibility samples per box (IPOPT-style local search) *)
  root_samples : int; (** multistart samples at the root box *)
  seed : int; (** deterministic sampling seed *)
  use_relax : bool;
      (** ablation switch: consult the relaxation oracle (when one is
          installed via [?relax]) before contracting a node *)
  relax_octagon : bool;
      (** try the octagon middle tier before the full LP check *)
  relax_obbt_depth : int;
      (** optimization-based bounds tightening runs at depths [<=] this,
          and every node that shallow consults the relaxation oracle
          (a depth gate rather than a running count, so the decision is a
          function of the node alone and parallel runs stay
          schedule-independent) *)
  relax_obbt_vars : int;
      (** number of most-influential variables tightened per OBBT node *)
}

val default_config : config

type stats = {
  nodes : int;
  prunings : int;
  max_depth : int;
  relax_cuts : int; (** linear cuts asserted by the relaxation oracle *)
  relax_lp_checks : int; (** LP feasibility checks run *)
  relax_pruned : int; (** nodes pruned by the relaxation (octagon or LP) *)
  relax_oct_pruned : int; (** subset of [relax_pruned] refuted by octagons *)
  relax_tightened : int; (** variable bounds tightened (octagon + OBBT) *)
  relax_obbt : int; (** LP optimizations run for bounds tightening *)
}
(** Per-solve counters. Unlike {!total_nodes}/{!total_prunings} these
    never conflate concurrent solves: each {!solve} call returns its own
    figures. *)

val empty_stats : stats

val merge_stats : stats -> stats -> stats
(** Field-wise sum ([max] for [max_depth]); for callers that chain
    several solver attempts into one logical nonlinear check. *)

val total_nodes : unit -> int
val total_prunings : unit -> int
(** Process-wide cumulative node/pruning totals over all {!solve} calls,
    for telemetry differencing (cf. {!Absolver_lp.Simplex.total_pivots}).
    These conflate concurrent solves; prefer the per-solve {!stats}. *)

(** {1 Relaxation oracle}

    The linear-relaxation layer ([Absolver_relax]) depends on this
    library, so the search loop sees it through this record of closures.
    [rx_node] is called {e before} HC4/Newton with the node's depth and
    box. [Rx_prune] discards the node outright; [Rx_tightened] reports
    that the oracle shrank the box in place; [Rx_unchanged] that the
    consult neither pruned nor tightened.

    Nodes at depth [<= config.relax_obbt_depth] always consult the
    oracle.  Deeper nodes follow a per-path exponential backoff: an
    [Rx_unchanged] consult makes its subtree skip the next 1, then 3,
    then 7, ... levels, and an [Rx_tightened] consult resets the
    schedule.  The schedule rides with each node from parent to child.

    Contract: the decision and any box mutation must be a function of
    [depth] and the box only (never of scheduling or warm-start state),
    and must be {e sound}: a pruned box contains no point that satisfies
    every relation within the configured tolerance. Counters are atomics
    because parallel workers bump them concurrently; an oracle instance
    is meant to serve a single {!solve} call. *)

type relax_decision = Rx_prune | Rx_tightened | Rx_unchanged

type relax_oracle = {
  rx_node :
    budget:Absolver_resource.Budget.t -> depth:int -> Box.t -> relax_decision;
  rx_cuts : int Atomic.t;
  rx_lp_checks : int Atomic.t;
  rx_pruned : int Atomic.t;
  rx_oct_pruned : int Atomic.t;
  rx_tightened : int Atomic.t;
  rx_obbt : int Atomic.t;
}

val solve :
  ?config:config ->
  ?budget:Absolver_resource.Budget.t ->
  ?telemetry:Absolver_telemetry.Telemetry.t ->
  ?jobs:int ->
  ?relax:relax_oracle ->
  nvars:int ->
  box:Box.t ->
  Expr.rel list ->
  outcome * stats
(** Decide feasibility of the conjunction over the box. Variables absent
    from all constraints keep their box midpoint in witness points.

    [telemetry] is threaded into the parallel frontier (per-worker forks
    under the caller's open span, so traced runs stay one connected
    tree) and records the final search depth into the [nlp.bp_depth]
    histogram at every job count.

    The [budget] is ticked once per search node (and threaded into the HC4
    and Newton contractors, and into the relaxation oracle's LP pivots).
    Exhaustion degrades exactly like the node cap — [Approx_sat] with the
    best candidate found so far, else [Unknown] — and never escapes as an
    exception; the typed reason stays sticky in the budget
    ({!Absolver_resource.Budget.tripped}).

    [relax] installs a linear-relaxation oracle consulted before
    contraction on the backoff schedule above (gated by
    [config.use_relax]); pass a fresh oracle per call — its counters are
    reported in the returned {!stats}.

    [jobs] (default 1) sets the number of worker domains. [jobs <= 1]
    runs the historical sequential search (bit-for-bit identical to
    earlier releases when no oracle is installed).  [jobs > 1] runs the
    box worklist as a work-stealing frontier
    ({!Absolver_parallel.Pool.Frontier}): workers contract and split
    boxes concurrently, the root multistart sampling is spread over the
    pool in chunks, and the first rigorous certificate cancels everyone
    else through forked budgets.  Every random draw is seeded by the
    node's split path and every relaxation decision by the node's box and
    carried backoff, so the explored tree is schedule-independent:
    [Sat]/[Unsat] verdicts agree at every job count (witness points and
    [Approx_sat]/[Unknown] under a tripped cap may differ, since they
    depend on which worker reports first).  [Unsat] is only reported when
    the frontier fully drained (see DESIGN.md §11). *)

val pp_outcome : Format.formatter -> outcome -> unit
