(* Per-layer accounting for the traced run.

   The registry is the engine's only closure boundary below [Engine.solve],
   so the LP and branch-and-prune layers are timed by wrapping the
   registry's entry points ([ls_solve], the session's [lsess_solve],
   [ns_solve]).  Everything else is read from what the program already
   exposes: [Engine.run_stats], telemetry span totals and histograms, and
   the server's [stats] / [metrics] ops.  The wrappers run on server
   worker domains too, hence the lock. *)

module R = Absolver_core.Registry
module BP = Absolver_nlp.Branch_prune

type t = {
  mutable lp_calls : int;
  mutable lp_busy_s : float;
  mutable lp_unsat : int;
  mutable lp_unknown : int;
  mutable lp_core_sum : int;
  mutable nlp_calls : int;
  mutable nlp_busy_s : float;
  mutable nlp_unknown : int;
  mutable nlp_witnesses : int;
      (** sat/approx verdicts: each makes the engine re-solve the linear
          part once more with the witness fixed *)
  mutable bp : BP.stats;
}

let create () =
  {
    lp_calls = 0;
    lp_busy_s = 0.;
    lp_unsat = 0;
    lp_unknown = 0;
    lp_core_sum = 0;
    nlp_calls = 0;
    nlp_busy_s = 0.;
    nlp_unknown = 0;
    nlp_witnesses = 0;
    bp = BP.empty_stats;
  }

let lock = Mutex.create ()
let now = Unix.gettimeofday

let timed_lp acc f =
  let t0 = now () in
  let v = f () in
  let dt = now () -. t0 in
  Mutex.protect lock (fun () ->
      acc.lp_calls <- acc.lp_calls + 1;
      acc.lp_busy_s <- acc.lp_busy_s +. dt;
      match v with
      | R.L_sat _ -> ()
      | R.L_unsat core ->
        acc.lp_unsat <- acc.lp_unsat + 1;
        acc.lp_core_sum <- acc.lp_core_sum + List.length core
      | R.L_unknown _ -> acc.lp_unknown <- acc.lp_unknown + 1);
  v

let wrap_linear acc (ls : R.linear_solver) =
  {
    ls with
    R.ls_solve =
      (fun ~int_vars ~budget cons ->
        timed_lp acc (fun () -> ls.R.ls_solve ~int_vars ~budget cons));
    ls_session =
      Option.map
        (fun mk ~budget ->
          let s = mk ~budget in
          {
            s with
            R.lsess_solve =
              (fun ~int_vars cons ->
                timed_lp acc (fun () -> s.R.lsess_solve ~int_vars cons));
          })
        ls.R.ls_session;
  }

let wrap_nonlinear acc (ns : R.nonlinear_solver) =
  {
    ns with
    R.ns_solve =
      (fun ~relax ~budget ~telemetry ~nvars ~box rels ->
        let t0 = now () in
        let ((v, st) as r) = ns.R.ns_solve ~relax ~budget ~telemetry ~nvars ~box rels in
        let dt = now () -. t0 in
        Mutex.protect lock (fun () ->
            acc.nlp_calls <- acc.nlp_calls + 1;
            acc.nlp_busy_s <- acc.nlp_busy_s +. dt;
            acc.bp <- BP.merge_stats acc.bp st;
            match v with
            | R.N_sat _ | R.N_approx _ -> acc.nlp_witnesses <- acc.nlp_witnesses + 1
            | R.N_unknown -> acc.nlp_unknown <- acc.nlp_unknown + 1
            | R.N_unsat -> ());
        r);
  }

let wrap acc (r : R.t) =
  {
    r with
    R.linear = List.map (wrap_linear acc) r.R.linear;
    nonlinear = List.map (wrap_nonlinear acc) r.R.nonlinear;
  }

(* Count a pass only: a server's warm-up goes through the wrappers too. *)
let reset acc =
  Mutex.protect lock (fun () ->
      acc.lp_calls <- 0;
      acc.lp_busy_s <- 0.;
      acc.lp_unsat <- 0;
      acc.lp_unknown <- 0;
      acc.lp_core_sum <- 0;
      acc.nlp_calls <- 0;
      acc.nlp_busy_s <- 0.;
      acc.nlp_unknown <- 0;
      acc.nlp_witnesses <- 0;
      acc.bp <- BP.empty_stats)

(* What the program itself reports about a traced pass: [run_stats] and
   telemetry in-process, or the server's [metrics] op.  Counts are floats
   because the server reports them as Prometheus samples. *)
type program = {
  linear_checks : float;
  nonlinear_calls : float;
  bp_nodes : float option;
      (** [None] where the program has no per-solve node count *)
  relax_cuts : float;
  relax_lp_checks : float;
  relax_pruned : float;
  relax_oct_pruned : float;
  relax_tightened : float;
  relax_obbt : float;
  relax_lp_s : float;
  lp_pivots : float;
  cache_hits : float;
  cache_misses : float;
  lp_reused : float;
  lp_asserted : float;
  sat_busy_s : float;
  sat_decisions : float;
  sat_conflicts : float;
  sat_propagations : float;
  sat_restarts : float;
  presolve_busy_s : float;
  presolve_fixed : float;
  presolve_removed : float;
  presolve_tightened : float;
  bool_models : float;
  blocking_clauses : float;
  engine_wall_s : float;
  alloc_words : float;
}

(* The wrapper-accounting self-check: the failing equalities.  Every LP
   query the engine makes goes through the wrapped solver: one per
   [linear_checks], plus one witness re-solve per sat nonlinear verdict.
   A wrapper that misses a code path breaks one of these equalities. *)
let check_accounting acc prog =
  let f = float_of_int in
  let errs = ref [] in
  let expect name got want =
    if f got <> want then
      errs := Printf.sprintf "%s: wrapped %d, program %.0f" name got want :: !errs
  in
  expect "lp.calls" acc.lp_calls (prog.linear_checks +. f acc.nlp_witnesses);
  expect "nlp.calls" acc.nlp_calls prog.nonlinear_calls;
  Option.iter (expect "nlp.nodes" acc.bp.BP.nodes) prog.bp_nodes;
  expect "relax.cuts_asserted" acc.bp.BP.relax_cuts prog.relax_cuts;
  expect "relax.lp_checks" acc.bp.BP.relax_lp_checks prog.relax_lp_checks;
  expect "relax.nodes_pruned" acc.bp.BP.relax_pruned prog.relax_pruned;
  expect "relax.oct_pruned" acc.bp.BP.relax_oct_pruned prog.relax_oct_pruned;
  expect "relax.bounds_tightened" acc.bp.BP.relax_tightened prog.relax_tightened;
  expect "relax.obbt_runs" acc.bp.BP.relax_obbt prog.relax_obbt;
  List.rev !errs
