module I = Absolver_numeric.Interval
module Budget = Absolver_resource.Budget
module Faults = Absolver_resource.Faults

type outcome =
  | Sat of float array
  | Approx_sat of float array
  | Unsat
  | Unknown

type config = {
  eps : float;
  tol : float;
  max_nodes : int;
  use_hc4 : bool;
  use_newton : bool;
  samples_per_node : int;
  root_samples : int;
  seed : int;
  use_relax : bool;
  relax_octagon : bool;
  relax_obbt_depth : int;
  relax_obbt_vars : int;
}

let default_config =
  {
    eps = 1e-8;
    tol = 1e-7;
    max_nodes = 200_000;
    use_hc4 = true;
    use_newton = true;
    samples_per_node = 4;
    root_samples = 512;
    seed = 0x5eed;
    use_relax = true;
    relax_octagon = true;
    relax_obbt_depth = 2;
    relax_obbt_vars = 2;
  }

type stats = {
  nodes : int;
  prunings : int;
  max_depth : int;
  relax_cuts : int;
  relax_lp_checks : int;
  relax_pruned : int;
  relax_oct_pruned : int;
  relax_tightened : int;
  relax_obbt : int;
}

let empty_stats =
  {
    nodes = 0;
    prunings = 0;
    max_depth = 0;
    relax_cuts = 0;
    relax_lp_checks = 0;
    relax_pruned = 0;
    relax_oct_pruned = 0;
    relax_tightened = 0;
    relax_obbt = 0;
  }

let merge_stats a b =
  {
    nodes = a.nodes + b.nodes;
    prunings = a.prunings + b.prunings;
    max_depth = max a.max_depth b.max_depth;
    relax_cuts = a.relax_cuts + b.relax_cuts;
    relax_lp_checks = a.relax_lp_checks + b.relax_lp_checks;
    relax_pruned = a.relax_pruned + b.relax_pruned;
    relax_oct_pruned = a.relax_oct_pruned + b.relax_oct_pruned;
    relax_tightened = a.relax_tightened + b.relax_tightened;
    relax_obbt = a.relax_obbt + b.relax_obbt;
  }

(* ------------------------------------------------------------------ *)
(* Relaxation oracle hook                                              *)
(* ------------------------------------------------------------------ *)

(* The linear-relaxation layer lives in [Absolver_relax] (which depends
   on this library), so the search loop sees it only through this record
   of closures.  A node hands the oracle its depth and box; the oracle
   encloses every atom over the box, asserts the cuts into a warm LP
   session and decides.  [Rx_prune] means the linear relaxation of the
   constraint system (slackened by the feasibility tolerance) is empty
   over the box, so the node can be discarded without HC4, Newton or
   sampling.  [Rx_tightened] means the oracle shrank the box in place
   (octagon bounds or optimization-based bounds tightening);
   [Rx_unchanged] means the consult neither pruned nor tightened.

   Determinism contract: the decision (and any box tightening) must be a
   function of [depth] and the box only — never of worker identity,
   arrival order or warm-start state — so that parallel runs explore the
   same tree at every job count (see DESIGN.md §11, §17). *)

type relax_decision = Rx_prune | Rx_tightened | Rx_unchanged

type relax_oracle = {
  rx_node : budget:Budget.t -> depth:int -> Box.t -> relax_decision;
  rx_cuts : int Atomic.t;
  rx_lp_checks : int Atomic.t;
  rx_pruned : int Atomic.t;
  rx_oct_pruned : int Atomic.t;
  rx_tightened : int Atomic.t;
  rx_obbt : int Atomic.t;
}

(* Per-path consult schedule.  Nodes at depth <= [relax_obbt_depth]
   always consult the oracle.  Below it, a consult that neither prunes
   nor tightens makes its subtree skip the next 1, then 3, then 7, ...
   levels ([skip] levels still to go, [streak] fruitless consults in a
   row on this path); a tightening consult resets the schedule.  The
   state is carried from parent to child in both search modes, so it is
   a function of the path and the boxes along it only. *)
type backoff = { skip : int; streak : int }

let no_backoff = { skip = 0; streak = 0 }

let relax_stats relax base =
  match relax with
  | None -> base
  | Some rx ->
    {
      base with
      relax_cuts = Atomic.get rx.rx_cuts;
      relax_lp_checks = Atomic.get rx.rx_lp_checks;
      relax_pruned = Atomic.get rx.rx_pruned;
      relax_oct_pruned = Atomic.get rx.rx_oct_pruned;
      relax_tightened = Atomic.get rx.rx_tightened;
      relax_obbt = Atomic.get rx.rx_obbt;
    }

let pp_outcome fmt = function
  | Sat p ->
    Format.fprintf fmt "sat (";
    Array.iteri (fun i x -> Format.fprintf fmt "%s%g" (if i > 0 then ", " else "") x) p;
    Format.fprintf fmt ")"
  | Approx_sat p ->
    Format.fprintf fmt "approx-sat (";
    Array.iteri (fun i x -> Format.fprintf fmt "%s%g" (if i > 0 then ", " else "") x) p;
    Format.fprintf fmt ")"
  | Unsat -> Format.pp_print_string fmt "unsat"
  | Unknown -> Format.pp_print_string fmt "unknown"

(* Random points inside a box, for IPOPT-style local feasibility search.
   Infinite box dimensions are sampled from a clamped window. *)
let sample_point rng (b : Box.t) =
  Array.map
    (fun (iv : I.t) ->
      if I.is_empty iv then 0.0
      else
        let lo = Float.max iv.I.lo (-1e6) and hi = Float.min iv.I.hi 1e6 in
        if lo >= hi then I.mid iv
        else lo +. (Random.State.float rng (hi -. lo)))
    b

(* Rigorous point certificate: interval evaluation at the degenerate box. *)
let certified_at rels p =
  List.for_all (fun rel -> Expr.certainly_holds (Box.point_env p) rel) rels

let feasible_at ~tol rels p =
  List.for_all (fun rel -> Expr.holds_float ~tol (fun v -> p.(v)) rel) rels

(* Contract univariate equalities with interval Newton. *)
let newton_pass ?budget box rels =
  List.iter
    (fun (rel : Expr.rel) ->
      if rel.Expr.op = Absolver_lp.Linexpr.Eq then
        match Expr.vars rel.Expr.expr with
        | [ v ] ->
          let x = Newton.contract ?budget rel.Expr.expr ~var:v (Box.get box v) in
          Box.set box v x
        | _ -> ())
    rels

exception Done of outcome

(* Process-wide branch-and-prune totals, differenced by telemetry (same
   pattern as Simplex.total_pivots).  Atomic: parallel workers flush their
   per-worker tallies concurrently.  These conflate concurrent solves by
   design; per-solve figures live in the [stats] record. *)
let global_nodes = Atomic.make 0
let global_prunings = Atomic.make 0
let total_nodes () = Atomic.get global_nodes
let total_prunings () = Atomic.get global_prunings

(* Consult the relaxation oracle for one node, following its path's
   backoff.  Returns [None] when the node is pruned, [Some backoff] (the
   children's schedule) otherwise. *)
let consult_relax relax config ~budget ~depth backoff b =
  match relax with
  | Some rx when config.use_relax ->
    if depth > config.relax_obbt_depth && backoff.skip > 0 then
      Some { backoff with skip = backoff.skip - 1 }
    else begin
      match rx.rx_node ~budget ~depth b with
      | Rx_prune -> None
      | Rx_tightened -> Some no_backoff
      | Rx_unchanged ->
        let streak = min (backoff.streak + 1) 30 in
        Some { skip = (1 lsl streak) - 1; streak }
    end
  | _ -> Some backoff

(* Sequential search, the jobs <= 1 path.  This is the original code and
   stays bit-for-bit identical when no oracle is installed: one RNG
   seeded once, depth-first explicit stack, so [--jobs 1] without
   relaxation reproduces historical witnesses exactly. *)
let solve_seq ?(config = default_config) ?(budget = Budget.unlimited) ?relax
    ~nvars ~box rels =
  let nodes = ref 0 and prunings = ref 0 and max_depth = ref 0 in
  let candidate = ref None in
  let note_candidate p =
    if !candidate = None && feasible_at ~tol:config.tol rels p then
      candidate := Some (Array.copy p)
  in
  let rng = Random.State.make [| config.seed |] in
  let stack = ref [ (Box.copy box, 0, no_backoff) ] in
  let outcome =
    try
      Faults.hit "nlp.branch_prune" budget;
      while !stack <> [] do
        let b, depth, backoff =
          match !stack with
          | x :: rest ->
            stack := rest;
            x
          | [] -> assert false
        in
        incr nodes;
        Budget.tick budget;
        if !nodes > config.max_nodes then
          raise
            (Done (match !candidate with Some p -> Approx_sat p | None -> Unknown));
        if depth > !max_depth then max_depth := depth;
        match consult_relax relax config ~budget ~depth backoff b with
        | None -> incr prunings
        | Some backoff -> (
          let alive =
            if config.use_hc4 then Hc4.contract ~budget b rels
            else not (Box.is_empty b)
          in
          if not alive then incr prunings
          else begin
            if config.use_newton then newton_pass ~budget b rels;
            if Box.is_empty b then incr prunings
            else begin
              (* Whole-box certificate first, then midpoint certificate. *)
              let p = Box.midpoint b in
              if List.for_all (fun rel -> Expr.certainly_holds (Box.env b) rel) rels
              then raise (Done (Sat p));
              if certified_at rels p then raise (Done (Sat p));
              note_candidate p;
              (* Local search: random samples within the contracted box; a
                 rigorously certified sample ends the search, a tolerance
                 sample is recorded as candidate. *)
              let n_samples =
                if depth = 0 then max config.root_samples config.samples_per_node
                else config.samples_per_node
              in
              for _ = 1 to n_samples do
                let sp = sample_point rng b in
                if certified_at rels sp then raise (Done (Sat sp));
                note_candidate sp
              done;
              if Box.max_width b > config.eps && nvars > 0 then begin
                let v = Box.widest_var b in
                match I.split (Box.get b v) with
                | exception Invalid_argument _ -> ()
                | left, right ->
                  let b_left = Box.copy b and b_right = Box.copy b in
                  Box.set b_left v left;
                  Box.set b_right v right;
                  stack :=
                    (b_left, depth + 1, backoff)
                    :: (b_right, depth + 1, backoff)
                    :: !stack
              end
            end
          end)
      done;
      match !candidate with Some p -> Approx_sat p | None -> Unsat
    with
    | Done o -> o
    | Budget.Exhausted _ ->
      (* Same degradation as the node cap: best tolerance-feasible point
         found so far, else unknown.  The typed reason stays sticky in the
         budget for the engine to report. *)
      (match !candidate with Some p -> Approx_sat p | None -> Unknown)
  in
  ignore (Atomic.fetch_and_add global_nodes !nodes);
  ignore (Atomic.fetch_and_add global_prunings !prunings);
  ( outcome,
    relax_stats relax
      {
        empty_stats with
        nodes = !nodes;
        prunings = !prunings;
        max_depth = !max_depth;
      } )

(* ------------------------------------------------------------------ *)
(* Parallel search (jobs > 1)                                          *)
(* ------------------------------------------------------------------ *)

module Pool = Absolver_parallel.Pool

(* Work items of the shared frontier.  [Explore] is one search node;
   [Sample] is a chunk of the root multistart sampling, split off so the
   sampling-heavy root (the dominant cost on e.g. car_steering) spreads
   over the workers instead of serializing on whoever pops the root box.

   Determinism of the search tree: every random draw comes from an RNG
   seeded by the item's {e path} — the bit-string of split decisions from
   the root (left = 2p, right = 2p+1, wrapping harmlessly past 62 bits) —
   never by worker identity or arrival order.  The relaxation oracle's
   decision at a node is likewise a function of its depth and box, and
   whether it is consulted at all follows the carried backoff (the same
   state the sequential search threads through its stack), so
   the set of boxes explored and points sampled is schedule-independent;
   only which certificate is found {e first} can vary, and any
   certificate is sound. *)
type par_item =
  | Explore of Box.t * int * int * backoff
    (* box, depth, path, relaxation consult schedule *)
  | Sample of Box.t * int * int (* box, count, chunk index *)

(* First-win terminal events: a rigorous certificate, or the shared node
   cap (which voids exhaustiveness exactly like the sequential cap). *)
type par_fin = Certificate of float array | Capped

let sample_chunk = 64

let solve_par ~(config : config) ~budget ~telemetry ?relax ~jobs ~nvars ~box
    rels =
  let nodes = Atomic.make 0
  and prunings = Atomic.make 0
  and max_depth = Atomic.make 0 in
  let candidate = Atomic.make None in
  let note_candidate p =
    if
      Atomic.get candidate = None
      && feasible_at ~tol:config.tol rels p
    then
      (* First tolerance-feasible point wins; losing the CAS just means
         another worker already recorded one. *)
      ignore (Atomic.compare_and_set candidate None (Some (Array.copy p)))
  in
  let rec bump_max cell v =
    let cur = Atomic.get cell in
    if v > cur && not (Atomic.compare_and_set cell cur v) then bump_max cell v
  in
  let work (ctx : (par_item, par_fin) Pool.Frontier.ctx) item =
    match item with
    | Sample (b, count, chunk) ->
      Budget.tick ctx.budget;
      let rng = Random.State.make [| config.seed; chunk; 0x5a17 |] in
      for _ = 1 to count do
        let sp = sample_point rng b in
        if certified_at rels sp then ctx.finish (Certificate sp)
        else note_candidate sp
      done
    | Explore (b, depth, path, backoff) ->
      let n = Atomic.fetch_and_add nodes 1 + 1 in
      if n > config.max_nodes then ctx.finish Capped
      else begin
        Budget.tick ctx.budget;
        bump_max max_depth depth;
        match
          consult_relax relax config ~budget:ctx.budget ~depth backoff b
        with
        | None -> Atomic.incr prunings
        | Some backoff ->
          let alive =
            if config.use_hc4 then Hc4.contract ~budget:ctx.budget b rels
            else not (Box.is_empty b)
          in
          if not alive then Atomic.incr prunings
          else begin
            if config.use_newton then newton_pass ~budget:ctx.budget b rels;
            if Box.is_empty b then Atomic.incr prunings
            else begin
              let p = Box.midpoint b in
              if
                List.for_all
                  (fun rel -> Expr.certainly_holds (Box.env b) rel)
                  rels
              then ctx.finish (Certificate p)
              else if certified_at rels p then ctx.finish (Certificate p)
              else begin
                note_candidate p;
                (* Root multistart already ran as [Sample] chunks, so every
                   depth gets the per-node allowance only. *)
                let n_samples = config.samples_per_node in
                let rng = Random.State.make [| config.seed; path |] in
                let stop = ref false in
                for _ = 1 to n_samples do
                  if not !stop then begin
                    let sp = sample_point rng b in
                    if certified_at rels sp then begin
                      ctx.finish (Certificate sp);
                      stop := true
                    end
                    else note_candidate sp
                  end
                done;
                if Box.max_width b > config.eps && nvars > 0 then begin
                  let v = Box.widest_var b in
                  match I.split (Box.get b v) with
                  | exception Invalid_argument _ -> ()
                  | left, right ->
                    let b_left = Box.copy b and b_right = Box.copy b in
                    Box.set b_left v left;
                    Box.set b_right v right;
                    ctx.push
                      (Explore
                         (b_left, depth + 1, (2 * path) land max_int, backoff));
                    ctx.push
                      (Explore
                         ( b_right,
                           depth + 1,
                           ((2 * path) + 1) land max_int,
                           backoff ))
                end
              end
            end
          end
      end
  in
  (* Root multistart sampling as independent chunks, then the root box. *)
  let init =
    let total = max config.root_samples config.samples_per_node in
    let rec chunks i off acc =
      if off >= total then List.rev acc
      else
        let c = min sample_chunk (total - off) in
        chunks (i + 1) (off + c) (Sample (Box.copy box, c, i) :: acc)
    in
    chunks 0 0 [ Explore (Box.copy box, 0, 1, no_backoff) ]
  in
  let outcome =
    match Pool.Frontier.run ~budget ~telemetry ~jobs ~init work with
    | Pool.Frontier.Finished (Certificate p) -> Sat p
    | Pool.Frontier.Finished Capped | Pool.Frontier.Stopped -> (
      (* Node cap or a tripped budget: same degradation as sequential. *)
      match Atomic.get candidate with Some p -> Approx_sat p | None -> Unknown)
    | Pool.Frontier.Drained -> (
      match Atomic.get candidate with Some p -> Approx_sat p | None -> Unsat)
  in
  let n = Atomic.get nodes and pr = Atomic.get prunings in
  ignore (Atomic.fetch_and_add global_nodes n);
  ignore (Atomic.fetch_and_add global_prunings pr);
  ( outcome,
    relax_stats relax
      {
        empty_stats with
        nodes = n;
        prunings = pr;
        max_depth = Atomic.get max_depth;
      } )

let solve ?(config = default_config) ?(budget = Budget.unlimited)
    ?(telemetry = Absolver_telemetry.Telemetry.disabled) ?(jobs = 1) ?relax
    ~nvars ~box rels =
  let ((_, stats) as r) =
    if jobs <= 1 then solve_seq ~config ~budget ?relax ~nvars ~box rels
    else begin
      match
        Budget.guard budget (fun () -> Faults.hit "nlp.branch_prune" budget)
      with
      | Error _ -> (Unknown, empty_stats)
      | Ok () -> solve_par ~config ~budget ~telemetry ?relax ~jobs ~nvars ~box rels
    end
  in
  Absolver_telemetry.Telemetry.observe telemetry "nlp.bp_depth"
    (float_of_int stats.max_depth);
  r
