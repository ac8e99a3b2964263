(* The per-layer metrics of a traced run: every name below is reported
   by every workload, so a layer a workload never reaches reads 0 there
   (e.g. [spice.factorizations] on vector_sweep).  perfbench/README.md
   says which end-to-end metric and workload each one should move. *)

let metrics =
  [ (* la *)
    ("la.factor_us", "us"); ("la.solve_us", "us"); ("la.factor_words", "words");
    ("la.fill_nnz", "count"); ("la.share", "frac");
    (* spice *)
    ("spice.prepare_s", "s"); ("spice.transient_s", "s");
    ("spice.prepare_s.reduce_bypass", "s"); ("spice.transient_s.reduce_bypass", "s");
    ("spice.newton_iterations", "count"); ("spice.factorizations", "count");
    ("spice.newton_per_analysis", "count"); ("spice.step_rejections", "count");
    ("spice.lte.accepted_steps", "count"); ("spice.bypass.hits", "count");
    ("spice.bypass.misses", "count"); ("spice.alloc_words_per_newton", "words");
    ("spice.self_s", "s");
    (* eval *)
    ("eval.resilience.direct", "count"); ("eval.resilience.recovered", "count");
    ("eval.resilience.gmin_ramp", "count"); ("eval.resilience.shrink_step", "count");
    ("eval.cache.hits", "count"); ("eval.cache.misses", "count");
    ("eval.cache.hit_frac", "frac"); ("eval.cache.bytes", "bytes");
    ("eval.cache.overhead_s", "s"); ("recovered_frac", "frac"); ("model_err", "frac");
    (* mtcmos core *)
    ("selective.optimize_s", "s"); ("selective.evaluations", "count");
    ("selective.flips", "count"); ("selective.reclaims", "count");
    ("selective.moves", "count"); ("sta.analyze_us", "us"); ("sta.share", "frac");
    ("sizing.size_s", "s"); ("vectors.rank_s", "s"); ("bp.simulate_us.p50", "us");
    ("bp.simulate_us.p99", "us"); ("bp.events_per_sim", "count");
    ("mtcmos.self_s", "s");
    (* netlist *)
    ("event_sim.transition_us.p50", "us"); ("event_sim.touched_per_step", "count");
    ("event_sim.compile_s", "s");
    (* runner *)
    ("runner.parse_s", "s"); ("runner.job_s.p50", "s"); ("runner.job_s.max", "s");
    ("runner.self_s", "s");
    (* par *)
    ("par.pool.calls", "count"); ("par.busy_frac.max", "frac"); ("par.imbalance", "ratio");
    ("par.self_s", "s");
    (* obs *)
    ("obs.trace_overhead_frac", "frac") ]

(* Which layer a span label belongs to, for the self-time split.  The
   benchmark's own ["bench.*"] spans are attributed to the layer of the
   function they wrap. *)
let layer_of_label label =
  let l =
    if String.starts_with ~prefix:"bench." label then
      String.sub label 6 (String.length label - 6)
    else label
  in
  let has p = String.starts_with ~prefix:p l in
  if has "runner." then Some "runner"
  else if has "spice." || l = "newton" then Some "spice"
  else if has "par." then Some "par"
  else if
    List.exists has
      [ "sizing."; "selective."; "vectors."; "search."; "characterize.";
        "variation."; "bp." ]
  then Some "mtcmos"
  else None

type traced = {
  obs : Obs.t;  (** the traced pass's handle *)
  wall : float;  (** traced pass wall time *)
  untraced_wall : float;  (** the same pass with observability off *)
  nocache_wall : float;  (** the same pass untraced, without the cache *)
  pass_words : float;  (** words allocated by the traced pass *)
  cache : Eval.Cache.counters;  (** summed over the traced pass's caches *)
  compile_s : float;
  probes : (string * float) list;
}

let us_percentiles events name =
  match
    List.filter_map
      (fun (e : Obs.Trace.event) ->
        if e.Obs.Trace.name = name then Some (1e6 *. e.Obs.Trace.dur) else None)
      events
  with
  | [] -> (0.0, 0.0)
  | ds -> (Util.quantile 0.5 ds, Util.quantile 0.99 ds)

let collect t =
  let m = Obs.metrics t.obs in
  let count name = float_of_int (Obs.Metrics.count m name) in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let events =
    match Obs.trace t.obs with Some tr -> Obs.Trace.events tr | None -> []
  in
  let labels = Obs.Prof.labels (Obs.Prof.of_events events) in
  let total name =
    List.fold_left
      (fun acc (l, _, tot, _) -> if l = name then acc +. tot else acc)
      0.0 labels
  in
  let self layer =
    List.fold_left
      (fun acc (l, _, _, s) ->
        if layer_of_label l = Some layer then acc +. s else acc)
      0.0 labels
  in
  let probe name = Option.value ~default:0.0 (List.assoc_opt name t.probes) in
  let newton = count "spice.newton_iterations" in
  let analyses = count "spice.transient.analyses" +. count "spice.dc.analyses" in
  let hits = float_of_int t.cache.Eval.Cache.hits in
  let misses = float_of_int t.cache.Eval.Cache.misses in
  let busy =
    List.filter_map
      (fun (name, v) ->
        match v with
        | Obs.Metrics.Value s
          when String.starts_with ~prefix:"par.worker." name
               && String.ends_with ~suffix:".busy_s" name ->
          Some s
        | _ -> None)
      (Obs.Metrics.dump m)
  in
  let busy_max = List.fold_left Float.max 0.0 busy in
  let busy_mean =
    ratio (List.fold_left ( +. ) 0.0 busy) (float_of_int (List.length busy))
  in
  let p50, p99 = us_percentiles events "bp.simulate" in
  let derived =
    [ ("spice.newton_iterations", newton);
      ("spice.factorizations", count "spice.factorizations");
      ("spice.newton_per_analysis", ratio newton analyses);
      ("spice.step_rejections", count "spice.step_rejections");
      ("spice.lte.accepted_steps", count "spice.lte.accepted_steps");
      ("spice.bypass.hits", count "spice.bypass.hits");
      ("spice.bypass.misses", count "spice.bypass.misses");
      ("spice.alloc_words_per_newton", ratio t.pass_words newton);
      ("spice.self_s", self "spice");
      ("eval.resilience.direct", count "eval.resilience.direct");
      ("eval.resilience.recovered", count "eval.resilience.recovered");
      ("eval.resilience.gmin_ramp", count "eval.resilience.recovery.gmin-ramp");
      ("eval.resilience.shrink_step", count "eval.resilience.recovery.shrink-step");
      ("eval.cache.hits", hits);
      ("eval.cache.misses", misses);
      ("eval.cache.hit_frac", ratio hits (hits +. misses));
      ("eval.cache.bytes", float_of_int t.cache.Eval.Cache.bytes);
      ("eval.cache.overhead_s", t.untraced_wall -. t.nocache_wall);
      ( "recovered_frac",
        ratio (count "eval.resilience.recovered") (count "eval.resilience.attempted") );
      ("selective.optimize_s", total "bench.selective.optimize");
      ("selective.evaluations", count "selective.evaluations");
      ("selective.flips", count "selective.flips");
      ("selective.reclaims", count "selective.reclaims");
      ("selective.moves", count "selective.moves");
      ("sizing.size_s", total "bench.sizing.size_for_degradation");
      ("vectors.rank_s", total "bench.vectors.rank");
      ("bp.simulate_us.p50", p50);
      ("bp.simulate_us.p99", p99);
      ("bp.events_per_sim", ratio (count "bp.events") (count "bp.simulations"));
      ("mtcmos.self_s", self "mtcmos");
      ("event_sim.compile_s", t.compile_s);
      ("runner.self_s", self "runner");
      ("par.pool.calls", count "par.pool.calls");
      ("par.busy_frac.max", ratio busy_max t.wall);
      ("par.imbalance", ratio busy_max busy_mean);
      ("par.self_s", self "par");
      ("obs.trace_overhead_frac", ratio t.wall t.untraced_wall -. 1.0) ]
  in
  List.map
    (fun (name, unit) ->
      let v =
        match List.assoc_opt name derived with
        | Some v -> v
        | None -> probe name
      in
      (name, unit, v))
    metrics
