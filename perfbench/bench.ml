(* The repository benchmark (see NOTES.md for the workloads and metrics).

     bench.exe --workload steering|fischer_enum|server_mix --seed N
               --seconds S --trace 0|1

   Set-up (input generation and parsing, server start and warm-up) runs
   several times and reports its median.  The measured part repeats
   rounds, each a fixed seeded batch of requests sent closed-loop, within
   [--seconds].  With [--trace 0] it prints the end-to-end
   metrics; with [--trace 1] it alternates untraced and traced rounds for
   [--seconds] and prints the per-layer metrics of the traced rounds, per
   round.  Every answer is checked; a wrong one makes the
   command exit 1, an unknown or refused one only counts as failed.  The
   last line of standard output is one JSON object. *)

module A = Absolver_core
module G = Perfbench_lib.Gen
module L = Perfbench_lib.Layers
module BP = Absolver_nlp.Branch_prune
module Tel = Absolver_telemetry.Telemetry
module Server = Absolver_server.Server
module Sjson = Absolver_server.Sjson
module S = Absolver_encodings.Sudoku
module Smt2 = Absolver_smtlib.Smt2

let now = Unix.gettimeofday

exception Wrong_answer of string

let wrong fmt = Printf.ksprintf (fun s -> raise (Wrong_answer s)) fmt

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile. *)
let percentile l q =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let ratio a b = if b = 0. then 0. else a /. b

(* ------------------------------------------------------------------ *)
(* Passes                                                              *)

type pass = {
  mutable latencies_ms : float list;  (** of the round in progress *)
  mutable rounds_done : (float * float list) list;  (** wall, latencies *)
  mutable attempted : int;
  mutable verified : int;
  plock : Mutex.t;
}

let new_pass () =
  { latencies_ms = []; rounds_done = []; attempted = 0; verified = 0; plock = Mutex.create () }

(* Time one request; [f] returns whether the answer was verified (false:
   unknown or refused) and raises [Wrong_answer] on a wrong one. *)
let request p f =
  let t0 = now () in
  let ok = f () in
  let dt = (now () -. t0) *. 1000. in
  Mutex.protect p.plock (fun () ->
      p.latencies_ms <- dt :: p.latencies_ms;
      p.attempted <- p.attempted + 1;
      if ok then p.verified <- p.verified + 1)

(* Run one round of each pass in turn, as long as the next turn is
   expected to end within [seconds] (at least one turn).  The traced run
   alternates its untraced and traced rounds, so that both see the same
   machine conditions. *)
let run_rounds ~seconds rounds =
  let passes = List.map (fun round -> (new_pass (), round)) rounds in
  let t0 = now () in
  let rec loop () =
    let turn0 = now () in
    List.iter
      (fun (p, round) ->
        let r0 = now () in
        round p;
        p.rounds_done <- (now () -. r0, p.latencies_ms) :: p.rounds_done;
        p.latencies_ms <- [])
      passes;
    let t = now () in
    if t -. t0 +. (t -. turn0) <= seconds then loop ()
  in
  loop ();
  List.map fst passes

let run_pair ~seconds a b =
  match run_rounds ~seconds [ a; b ] with [ pa; pb ] -> (pa, pb) | _ -> assert false

let rounds p = float_of_int (List.length p.rounds_done)

(* On a shared machine the speed of a fixed CPU loop can drift by a third
   or more over tens of seconds.  Every round does the same work, so the
   slower rounds measure that interference rather than the program.
   [wall_s] is the fastest round, and the latency percentiles come from
   the fastest rounds that together hold [min_samples] requests (every
   round, if the run has fewer), so that the 90th percentile has ten
   samples beyond it. *)
let min_samples = 100

let fastest_rounds p =
  let rec take n = function
    | ((_, lat) as r) :: rest when n < min_samples -> r :: take (n + List.length lat) rest
    | _ -> []
  in
  take 0 (List.sort (fun (a, _) (b, _) -> compare a b) p.rounds_done)

let wall_s p = List.fold_left (fun m (w, _) -> Float.min m w) infinity p.rounds_done

(* ------------------------------------------------------------------ *)
(* Per-layer figures of a traced pass                                  *)

type server_figures = {
  queue_wait_p50_ms : float;
  queue_wait_p90_ms : float;
  service_p50_ms : float;
  rejected : float;
  errors : float;
}

let no_server =
  { queue_wait_p50_ms = 0.; queue_wait_p90_ms = 0.; service_p50_ms = 0.; rejected = 0.; errors = 0. }

(* Fails loudly when a wrapper missed a code path. *)
let self_check acc prog =
  match L.check_accounting acc prog with
  | [] -> ()
  | errs ->
    List.iter prerr_endline ("wrapper accounting self-check failed:" :: errs);
    exit 1

let layer_metrics ~rounds:n ~overhead ~convert_s (acc : L.t) (prog : L.program) srv =
  let per x = x /. n in
  let f = float_of_int in
  let bp = acc.L.bp in
  let c name unit v = (name, unit, v) in
  [
    c "nlp.calls" "count/round" (per (f acc.L.nlp_calls));
    c "nlp.busy_s" "s/round" (per acc.L.nlp_busy_s);
    c "nlp.nodes" "count/round" (per (f bp.BP.nodes));
    c "nlp.prunings" "count/round" (per (f bp.BP.prunings));
    c "nlp.prune_frac" "ratio" (ratio (f bp.BP.prunings) (f bp.BP.nodes));
    c "nlp.unknown" "count/round" (per (f acc.L.nlp_unknown));
    c "relax.cuts_asserted" "count/round" (per prog.relax_cuts);
    c "relax.lp_checks" "count/round" (per prog.relax_lp_checks);
    c "relax.nodes_pruned" "count/round" (per prog.relax_pruned);
    c "relax.oct_pruned" "count/round" (per prog.relax_oct_pruned);
    c "relax.obbt_runs" "count/round" (per prog.relax_obbt);
    c "relax.bounds_tightened" "count/round" (per prog.relax_tightened);
    c "relax.prune_per_check" "ratio" (ratio prog.relax_pruned prog.relax_lp_checks);
    c "relax.lp_s" "s/round" (per prog.relax_lp_s);
    c "lp.calls" "count/round" (per (f acc.L.lp_calls));
    c "lp.busy_s" "s/round" (per acc.L.lp_busy_s);
    c "lp.unsat_frac" "ratio" (ratio (f acc.L.lp_unsat) (f acc.L.lp_calls));
    c "lp.unknown" "count/round" (per (f acc.L.lp_unknown));
    c "lp.core_size_mean" "count" (ratio (f acc.L.lp_core_sum) (f acc.L.lp_unsat));
    c "lp.pivots" "count/round" (per prog.lp_pivots);
    c "lp.cache_hit_frac" "ratio" (ratio prog.cache_hits (prog.cache_hits +. prog.cache_misses));
    c "lp.reuse_frac" "ratio" (ratio prog.lp_reused (prog.lp_reused +. prog.lp_asserted));
    c "sat.busy_s" "s/round" (per prog.sat_busy_s);
    c "sat.decisions" "count/round" (per prog.sat_decisions);
    c "sat.conflicts" "count/round" (per prog.sat_conflicts);
    c "sat.propagations" "count/round" (per prog.sat_propagations);
    c "sat.restarts" "count/round" (per prog.sat_restarts);
    c "presolve.busy_s" "s/round" (per prog.presolve_busy_s);
    c "presolve.fixed_literals" "count/round" (per prog.presolve_fixed);
    c "presolve.removed_clauses" "count/round" (per prog.presolve_removed);
    c "presolve.tightened_bounds" "count/round" (per prog.presolve_tightened);
    c "engine.bool_models" "count/round" (per prog.bool_models);
    c "engine.blocking_clauses" "count/round" (per prog.blocking_clauses);
    c "engine.self_s" "s/round"
      (per
         (prog.engine_wall_s -. prog.presolve_busy_s -. prog.sat_busy_s -. acc.L.lp_busy_s
        -. acc.L.nlp_busy_s));
    c "engine.alloc_mwords" "Mword/round" (per (prog.alloc_words /. 1e6));
    c "smtlib.convert_s" "s/round" (per convert_s);
    c "server.queue_wait_p50_ms" "ms" srv.queue_wait_p50_ms;
    c "server.queue_wait_p90_ms" "ms" srv.queue_wait_p90_ms;
    c "server.service_p50_ms" "ms" srv.service_p50_ms;
    c "server.rejected" "count/round" (per srv.rejected);
    c "server.errors" "count/round" (per srv.errors);
    c "trace.overhead_frac" "ratio" overhead;
  ]

(* ------------------------------------------------------------------ *)
(* In-process workloads: steering and fischer_enum                     *)

(* [stats]: the run statistics of every request of the pass. *)
let program_of_inprocess stats tel =
  let f = float_of_int in
  let sum g = List.fold_left (fun a (st : A.Engine.run_stats) -> a +. g st) 0. stats in
  let cnt n = f (Tel.counter tel n) in
  let span n =
    match List.assoc_opt n (Tel.span_aggregates tel) with
    | Some a -> a.Tel.agg_total_s
    | None -> 0.
  in
  {
    L.linear_checks = sum (fun s -> f s.A.Engine.linear_checks);
    nonlinear_calls = sum (fun s -> f s.A.Engine.nonlinear_calls);
    bp_nodes = Some (sum (fun s -> f s.A.Engine.bp_nodes));
    relax_cuts = sum (fun s -> f s.A.Engine.relax_cuts_asserted);
    relax_lp_checks = sum (fun s -> f s.A.Engine.relax_lp_checks);
    relax_pruned = sum (fun s -> f s.A.Engine.relax_nodes_pruned);
    relax_oct_pruned = cnt "nlp.relax.oct_pruned";
    relax_tightened = sum (fun s -> f s.A.Engine.relax_bounds_tightened);
    relax_obbt = cnt "nlp.relax.obbt_opts";
    relax_lp_s =
      (match Tel.histogram tel "bp.relax.lp_time" with Some h -> h.Tel.h_sum | None -> 0.);
    lp_pivots = cnt "lp.pivots";
    cache_hits = sum (fun s -> f s.A.Engine.lp_cache_hits);
    cache_misses = sum (fun s -> f s.A.Engine.lp_cache_misses);
    lp_reused = sum (fun s -> f s.A.Engine.lp_reused);
    lp_asserted = sum (fun s -> f s.A.Engine.lp_asserted);
    sat_busy_s = span "sat_search";
    sat_decisions = sum (fun s -> f s.A.Engine.sat_decisions);
    sat_conflicts = sum (fun s -> f s.A.Engine.sat_conflicts);
    sat_propagations = sum (fun s -> f s.A.Engine.sat_propagations);
    sat_restarts = sum (fun s -> f s.A.Engine.sat_restarts);
    presolve_busy_s = sum (fun s -> s.A.Engine.presolve_seconds);
    presolve_fixed = sum (fun s -> f s.A.Engine.presolve_fixed_literals);
    presolve_removed = sum (fun s -> f s.A.Engine.presolve_removed_clauses);
    presolve_tightened = sum (fun s -> f s.A.Engine.presolve_tightened_bounds);
    bool_models = sum (fun s -> f s.A.Engine.bool_models);
    blocking_clauses = sum (fun s -> f s.A.Engine.blocking_clauses);
    engine_wall_s = sum (fun s -> s.A.Engine.wall_seconds);
    alloc_words = sum (fun s -> s.A.Engine.alloc_minor_words +. s.A.Engine.alloc_major_words);
  }

(* A workload run in this process: [round ~registry ~options ~record p]
   runs one round, passing every request's run statistics to [record]. *)
type inprocess = {
  registry : A.Registry.t;
  round :
    registry:A.Registry.t ->
    options:A.Engine.options ->
    record:(A.Engine.run_stats -> unit) ->
    pass ->
    unit;
}

let steering_registry =
  {
    A.Registry.default with
    A.Registry.nonlinear =
      [
        A.Registry.branch_prune_solver
          ~config:
            { BP.default_config with BP.max_nodes = 600; samples_per_node = 2; root_samples = 2048 }
          ();
      ];
  }

let steering_setup seed =
  let problem = G.steering_problem seed in
  let round ~registry ~options ~record p =
    request p (fun () ->
        let r, st = A.Engine.solve ~registry ~options problem in
        record st;
        match r with
        | A.Engine.R_sat sol -> (
          match A.Solution.check problem sol with
          | Ok () -> true
          | Error e -> wrong "steering: sat answer fails Solution.check: %s" e)
        | A.Engine.R_unsat -> wrong "steering: unsat, but the flagship instance is sat"
        | A.Engine.R_unknown _ -> false)
  in
  { registry = steering_registry; round }

let enum_limit = 50

let fischer_setup seed =
  let instances =
    List.map
      (fun (fi : G.fischer) ->
        let problem =
          match Absolver_smtlib.Parser.parse_benchmark fi.G.fi_text with
          | Error e -> failwith ("parse: " ^ e)
          | Ok b -> (
            match Absolver_smtlib.To_ab.convert b with
            | Ok p -> p
            | Error e -> failwith ("convert: " ^ e))
        in
        (fi, problem))
      (G.fischer_round seed)
  in
  let projected problem (sol : A.Solution.t) =
    let vars =
      match A.Ab_problem.projection problem with
      | Some vs -> vs
      | None -> List.init (A.Ab_problem.num_bool_vars problem) Fun.id
    in
    List.map (fun v -> sol.A.Solution.bools.(v)) vars
  in
  (* Two requests per instance: its models are enumerated (paper Sec. 4/6),
     and it is solved once (Table 2). *)
  let round ~registry ~options ~record p =
    List.iter
      (fun ((fi : G.fischer), problem) ->
        let name = fi.G.fi_name in
        let check_sol sol =
          match A.Solution.check problem sol with
          | Ok () -> ()
          | Error e -> wrong "%s: model fails Solution.check: %s" name e
        in
        request p (fun () ->
            match A.Engine.all_models ~registry ~options ~limit:enum_limit problem with
            | Error _ -> false
            | Ok (models, st) ->
              record st;
              if fi.G.fi_sat && models = [] then wrong "%s: no models, but it is sat" name;
              if (not fi.G.fi_sat) && models <> [] then wrong "%s: models, but it is unsat" name;
              List.iter check_sol models;
              let keys = List.sort_uniq compare (List.map (projected problem) models) in
              if List.length keys <> List.length models then
                wrong "%s: enumeration repeated a model" name;
              st.A.Engine.budget_exhausted = None);
        request p (fun () ->
            let r, st = A.Engine.solve ~registry ~options problem in
            record st;
            match r with
            | A.Engine.R_sat sol ->
              if not fi.G.fi_sat then wrong "%s: sat, but it is unsat" name;
              check_sol sol;
              true
            | A.Engine.R_unsat ->
              if fi.G.fi_sat then wrong "%s: unsat, but it is sat" name;
              true
            | A.Engine.R_unknown _ -> false))
      instances
  in
  { registry = A.Registry.default; round }

(* The round function of a pass, with what its traced variant records:
   the wrapper accounting, every request's run statistics, telemetry. *)
let inprocess_round w ~traced =
  let acc = L.create () in
  let tel = if traced then Tel.create () else Tel.disabled in
  let registry = if traced then L.wrap acc w.registry else w.registry in
  let options = { A.Engine.default_options with A.Engine.telemetry = tel } in
  let stats = ref [] in
  let record st = if traced then stats := st :: !stats in
  (w.round ~registry ~options ~record, acc, stats, tel)

(* ------------------------------------------------------------------ *)
(* server_mix                                                          *)

type conn = { wr : out_channel; rd : in_channel; serve : Thread.t }

let connect srv =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  let serve =
    Thread.create
      (fun () ->
        let ic = Unix.in_channel_of_descr req_r and oc = Unix.out_channel_of_descr resp_w in
        Server.serve_channel srv ic oc;
        close_in_noerr ic;
        close_out_noerr oc)
      ()
  in
  { wr = Unix.out_channel_of_descr req_w; rd = Unix.in_channel_of_descr resp_r; serve }

let disconnect c =
  close_out_noerr c.wr;
  Thread.join c.serve;
  close_in_noerr c.rd

let call c line =
  output_string c.wr line;
  output_char c.wr '\n';
  flush c.wr;
  match Sjson.parse (input_line c.rd) with
  | Ok o -> o
  | Error e -> failwith ("server reply is not JSON: " ^ e)

let str o k = Option.bind (Sjson.member k o) Sjson.get_string

(* The grid a Sudoku model assigns: cells are the [x_r_c] variables of the
   model line. *)
let grid_of_model model =
  let g = Array.make_matrix 9 9 0 in
  List.iter
    (fun tok ->
      match String.split_on_char '=' tok with
      | [ name; v ] -> (
        match String.split_on_char '_' name with
        | [ "x"; r; c ] -> (
          match (int_of_string_opt r, int_of_string_opt c, int_of_string_opt v) with
          | Some r, Some c, Some v when r >= 0 && r < 9 && c >= 0 && c < 9 -> g.(r).(c) <- v
          | _ -> ())
        | _ -> ())
      | _ -> ())
    (String.split_on_char ' ' model);
  g

(* Send one request and check its reply. *)
let serve_request c (req : G.request) =
  let reply = call c (G.request_line req) in
  if str reply "status" <> Some "ok" then false
  else
    match req with
    | G.Sudoku { clues; _ } -> (
      match str reply "verdict" with
      | Some "sat" ->
        let g = grid_of_model (Option.value ~default:"" (str reply "model")) in
        if not (S.is_complete_and_valid g && S.respects_clues ~clues g) then
          wrong "sudoku: invalid grid %s" (S.to_string g);
        true
      | Some "unsat" -> wrong "sudoku: unsat, but every generated puzzle is solvable"
      | _ -> false)
    | G.Smt1 { sat; _ } -> (
      match str reply "verdict" with
      | Some "sat" -> if sat then true else wrong "smt1 fischer: sat, but it is unsat"
      | Some "unsat" -> if sat then wrong "smt1 fischer: unsat, but it is sat" else true
      | _ -> false)
    | G.Smt2 { sat; _ } -> (
      match Sjson.member "replies" reply with
      | Some (Sjson.Arr [ Sjson.Str "sat" ]) ->
        if sat then true else wrong "smt2 fischer: sat, but it is unsat"
      | Some (Sjson.Arr [ Sjson.Str "unsat" ]) ->
        if sat then wrong "smt2 fischer: unsat, but it is sat" else true
      | _ -> false)

type server_run = { srv : Server.t; conns : conn list; clients : G.client list }

(* The server's own default on a 2-core machine (cores - 1): the solver
   runs on one core, and the client threads, which mostly wait for replies,
   have the other. *)
let workers = 1

let start_server clients ~registry =
  let config =
    { Server.default_config with Server.workers; default_timeout_ms = None; registry }
  in
  let srv = Server.create ~config () in
  let conns = List.map (fun _ -> connect srv) clients in
  (* warm-up: open each client's SMT-LIB 2 session and send one request of
     each kind *)
  List.iter2
    (fun c (cl : G.client) ->
      if str (call c cl.G.cl_base) "status" <> Some "ok" then failwith "session base refused";
      List.iter
        (fun r -> if not (serve_request c r) then failwith "warm-up request failed")
        cl.G.cl_warmup)
    conns clients;
  { srv; conns; clients }

let stop_server s =
  List.iter disconnect s.conns;
  Server.shutdown s.srv

let plain_registry () =
  let solver, dispose = A.Registry.persistent_simplex () in
  ({ A.Registry.default with A.Registry.linear = [ solver ] }, dispose)

let server_round s p =
  let failure = ref None in
  let client c (cl : G.client) =
    Thread.create
      (fun () ->
        try List.iter (fun r -> request p (fun () -> serve_request c r)) cl.G.cl_round
        with e -> failure := Some e)
      ()
  in
  List.iter Thread.join (List.map2 client s.conns s.clients);
  Option.iter raise !failure

(* Prometheus samples of the [metrics] op, keyed by series. *)
let scrape c =
  let text =
    match str (call c {|{"id":0,"op":"metrics"}|}) "metrics" with
    | Some t -> t
    | None -> failwith "metrics op failed"
  in
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun line ->
      if line <> "" && line.[0] <> '#' then
        match String.rindex_opt line ' ' with
        | Some i -> (
          match float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1)) with
          | Some v -> Hashtbl.replace tbl (String.sub line 0 i) v
          | None -> ())
        | None -> ())
    (String.split_on_char '\n' text);
  tbl

let server_counts c =
  match Sjson.member "stats" (call c {|{"id":0,"op":"stats"}|}) with
  | Some st ->
    let num o k = match Sjson.member k o with Some (Sjson.Num x) -> x | _ -> 0. in
    let errors =
      match Sjson.member "errors" st with
      | Some (Sjson.Obj kv) ->
        List.fold_left (fun a (_, v) -> match v with Sjson.Num x -> a +. x | _ -> a) 0. kv
      | _ -> 0.
    in
    (num st "rejected", errors)
  | None -> failwith "stats op failed"

(* Quantile of the samples a histogram gained between two scrapes: the
   geometric midpoint of the bucket holding the rank, as the program's own
   quantile estimate does. *)
let hist_quantile before after name q =
  let prefix = name ^ "_bucket{le=\"" in
  let n = String.length prefix in
  let buckets =
    Hashtbl.fold
      (fun k v acc ->
        if String.length k > n && String.sub k 0 n = prefix then
          let le = String.sub k n (String.length k - n - 2) in
          match float_of_string_opt le with
          | Some ub ->
            (ub, v -. Option.value ~default:0. (Hashtbl.find_opt before k)) :: acc
          | None -> acc
        else acc)
      after []
    |> List.sort compare
  in
  match List.rev buckets with
  | [] -> 0.
  | (_, total) :: _ ->
    let rank = Float.max 1. (ceil (q *. total)) in
    let ub = fst (List.find (fun (_, cum) -> cum >= rank) buckets) in
    if ub <= 0. then 0. else ub /. sqrt Tel.hist_gamma

let program_of_scrapes before after =
  let d k =
    Option.value ~default:0. (Hashtbl.find_opt after k)
    -. Option.value ~default:0. (Hashtbl.find_opt before k)
  in
  let ctr n = d ("absolver_" ^ n ^ "_total") in
  let span n = d (Printf.sprintf "absolver_span_seconds_total{span=\"%s\"}" n) in
  {
    L.linear_checks = ctr "engine_linear_checks";
    nonlinear_calls = ctr "engine_nonlinear_calls";
    (* the program's nlp.nodes counter differences process-wide totals,
       which concurrent lanes conflate: no per-solve figure to check *)
    bp_nodes = None;
    relax_cuts = ctr "nlp_relax_cuts_asserted";
    relax_lp_checks = ctr "nlp_relax_lp_checks";
    relax_pruned = ctr "nlp_relax_nodes_pruned";
    relax_oct_pruned = ctr "nlp_relax_oct_pruned";
    relax_tightened = ctr "nlp_relax_bounds_tightened";
    relax_obbt = ctr "nlp_relax_obbt_opts";
    relax_lp_s = d "absolver_bp_relax_lp_time_sum";
    lp_pivots = ctr "lp_pivots";
    cache_hits = ctr "lp_inc_cache_hits";
    cache_misses = ctr "lp_inc_cache_misses";
    lp_reused = ctr "lp_inc_reused";
    lp_asserted = ctr "lp_inc_asserted";
    sat_busy_s = span "sat_search";
    sat_decisions = ctr "sat_decisions";
    sat_conflicts = ctr "sat_conflicts";
    sat_propagations = ctr "sat_propagations";
    sat_restarts = ctr "sat_restarts";
    presolve_busy_s = span "presolve";
    presolve_fixed = ctr "presolve_fixed_literals";
    presolve_removed = ctr "presolve_removed_clauses";
    presolve_tightened = ctr "presolve_tightened_bounds";
    bool_models = ctr "engine_bool_models";
    blocking_clauses = ctr "engine_blocking_clauses";
    engine_wall_s = span "solve";
    alloc_words = d "absolver_server_request_alloc_words_sum";
  }

(* The traced run's SMT-LIB cost: parsing and converting the round's own
   request texts through the public front-ends, outside the server. *)
let convert_round clients =
  let unknown _ = Smt2.C_unknown "not solved" in
  List.fold_left
    (fun acc (cl : G.client) ->
      let session = Smt2.create () in
      let script line =
        match Option.bind (Result.to_option (Sjson.parse line)) (fun o -> str o "script") with
        | Some s -> s
        | None -> failwith "smt2 request without script"
      in
      ignore (Smt2.run_string session ~check:unknown (script cl.G.cl_base));
      List.fold_left
        (fun acc (r : G.request) ->
          let t0 = now () in
          (match r with
          | G.Smt1 { line; _ } -> (
            let text =
              match Option.bind (Result.to_option (Sjson.parse line)) (fun o -> str o "problem") with
              | Some t -> t
              | None -> failwith "smt1 request without problem"
            in
            match Absolver_smtlib.Parser.parse_benchmark text with
            | Ok b -> ignore (Absolver_smtlib.To_ab.convert b)
            | Error e -> failwith e)
          | G.Smt2 { line; _ } -> ignore (Smt2.run_string session ~check:unknown (script line))
          | G.Sudoku _ -> ());
          acc +. (now () -. t0))
        acc cl.G.cl_round)
    0. clients

(* ------------------------------------------------------------------ *)
(* Main                                                                *)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

let print_result ~correct ~attempted ~failed metrics =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
              (if Float.is_finite v then Printf.sprintf "%.17g" v else "0") unit)
          metrics))

let end_to_end ~setup_s p =
  let fast = fastest_rounds p in
  let lat = List.concat_map snd fast in
  Printf.printf "requests: %d (%d verified), rounds: %.0f, latency samples: %d from the %d fastest rounds\n%!"
    p.attempted p.verified (rounds p) (List.length lat) (List.length fast);
  Printf.eprintf "round walls (s): %s\n%!"
    (String.concat " " (List.rev_map (fun (w, _) -> Printf.sprintf "%.3f" w) p.rounds_done));
  [
    ("setup_s", "s", setup_s);
    ("wall_s", "s", wall_s p);
    ("req_p50_ms", "ms", percentile lat 0.50);
    ("req_p90_ms", "ms", percentile lat 0.90);
    ("ok_frac", "ratio", ratio (float_of_int p.verified) (float_of_int p.attempted));
    ("peak_heap_mb", "MB", peak_heap_mb ());
  ]

(* Set-up runs at least [setup_repeats] times and until [setup_min_s] is
   spent, once before the measured part and once after it, so that the
   median spans the machine conditions of the whole run.  The last set-up
   before the measured part is the one measured. *)
let setup_repeats = 3
let setup_min_s = 1.0

let timed_setups f =
  let times = ref [] and last = ref None and spent = ref 0. in
  while List.length !times < setup_repeats || !spent < setup_min_s do
    Option.iter (fun (_, dispose) -> dispose ()) !last;
    let t0 = now () in
    let v = f () in
    let dt = now () -. t0 in
    times := dt :: !times;
    spent := !spent +. dt;
    last := Some v
  done;
  (!times, Option.get !last)

(* Times [setup] around [measure], which gets the set-up's value and
   disposes of it. *)
let with_setups setup measure =
  let before, (v, dispose) = timed_setups setup in
  let result = measure v dispose in
  let after, (_, dispose) = timed_setups setup in
  dispose ();
  (median (before @ after), result)

let main workload seed seconds trace =
  let report p metrics =
    print_result ~correct:true ~attempted:p.attempted ~failed:(p.attempted - p.verified) metrics
  in
  match workload with
  | "steering" | "fischer_enum" ->
    let setup () =
      ((if workload = "steering" then steering_setup seed else fischer_setup seed), ignore)
    in
    if not trace then begin
      let setup_s, p =
        with_setups setup (fun w _ ->
            let round, _, _, _ = inprocess_round w ~traced:false in
            List.hd (run_rounds ~seconds [ round ]))
      in
      report p (end_to_end ~setup_s p)
    end
    else begin
      let w, _ = setup () in
      let plain_round, _, _, _ = inprocess_round w ~traced:false in
      let round, acc, stats, tel = inprocess_round w ~traced:true in
      let plain, p = run_pair ~seconds plain_round round in
      let prog = program_of_inprocess !stats tel in
      self_check acc prog;
      report p
        (layer_metrics ~rounds:(rounds p)
           ~overhead:((wall_s p /. wall_s plain) -. 1.)
           ~convert_s:0. acc prog no_server)
    end
  | "server_mix" ->
    let clients = G.server_clients seed in
    let start registry () =
      let s = start_server clients ~registry in
      (s, fun () -> stop_server s)
    in
    if not trace then begin
      let setup_s, p =
        with_setups (start plain_registry) (fun s stop ->
            let p = List.hd (run_rounds ~seconds [ server_round s ]) in
            stop ();
            p)
      in
      report p (end_to_end ~setup_s p)
    end
    else begin
      let plain_server = start_server clients ~registry:plain_registry in
      let acc = L.create () in
      let registry () =
        let r, dispose = plain_registry () in
        (L.wrap acc r, dispose)
      in
      let s = start_server clients ~registry in
      let probe = List.hd s.conns in
      let rej0, err0 = server_counts probe in
      let before = scrape probe in
      L.reset acc;
      let plain, p = run_pair ~seconds (server_round plain_server) (server_round s) in
      stop_server plain_server;
      let after = scrape probe in
      let rej1, err1 = server_counts probe in
      let convert_s = ref 0. in
      for _ = 1 to List.length p.rounds_done do
        convert_s := !convert_s +. convert_round clients
      done;
      stop_server s;
      let prog = program_of_scrapes before after in
      self_check acc prog;
      let q name x = hist_quantile before after name x in
      let srv =
        {
          queue_wait_p50_ms = q "absolver_server_queue_wait_ms" 0.5;
          queue_wait_p90_ms = q "absolver_server_queue_wait_ms" 0.9;
          service_p50_ms = q "absolver_server_latency_ms" 0.5;
          rejected = rej1 -. rej0;
          errors = err1 -. err0;
        }
      in
      report p
        (layer_metrics ~rounds:(rounds p)
           ~overhead:((wall_s p /. wall_s plain) -. 1.)
           ~convert_s:!convert_s acc prog srv)
    end
  | w ->
    Printf.eprintf "unknown workload %s\n" w;
    exit 2

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "steering|fischer_enum|server_mix");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  try main !workload !seed !seconds (!trace = 1)
  with Wrong_answer msg ->
    Printf.eprintf "wrong answer: %s\n%!" msg;
    exit 1
