(* mtsize: the MTCMOS sleep-transistor sizing tool as a CLI.

   Analysis jobs (sweep, size, worst-vectors, search, select) are
   one-job batch specs: the flags become a Runner.Spec.kind, computed by
   Runner.compute (the code a batch job runs), and the typed result is
   printed as text.  Single analyses: simulate, compare, estimate, sta,
   energy, wakeup, lint, workload, scale.  Exports and checks:
   export-deck, dot, trace-check.  Batches: run (a job file through one
   shared evaluation context, with journaled resume), serve (the
   sizing daemon) and submit (a client of it). *)

open Cmdliner

(* ---- shared argument plumbing ------------------------------------------- *)

(* Name resolution (tech cards, benchmark circuits, vectors, objectives)
   lives in Runner.Catalog so the batch job-file language and the CLI
   flags name things identically. *)
type bench_circuit = Runner.Catalog.bench_circuit = {
  name : string;
  circuit : Netlist.Circuit.t;
  widths : int list; (* input packing *)
}

let tech_term =
  let doc = "Technology card: 07um (1.2 V) or 03um (1.0 V)." in
  Arg.(value & opt string "07um" & info [ "t"; "tech" ] ~docv:"TECH" ~doc)

let circuit_term =
  let doc =
    "Benchmark circuit: tree, chain, adder$(i,N) (e.g. adder3), \
     mult$(i,N) (e.g. mult8), kogge$(i,N) (Kogge-Stone prefix adder), \
     random$(i,G) (seeded $(i,G)-gate random-logic cloud), or a \
     $(i,.net) netlist file (see Netlist.Parse for the language)."
  in
  Arg.(value & opt string "adder3" & info [ "c"; "circuit" ] ~docv:"CIRCUIT" ~doc)

let vectors_term =
  let doc =
    "Input transition \"v1,v2,..->w1,w2,..\" (one integer per input \
     group, little-endian).  Repeatable."
  in
  Arg.(value & opt_all string [] & info [ "v"; "vector" ] ~docv:"VEC" ~doc)

let setup tech_name circuit_name vector_strs =
  match Runner.Catalog.tech_of_name tech_name with
  | Error e -> Error e
  | Ok tech ->
    (match Runner.Catalog.circuit_of_name tech circuit_name with
     | Error e -> Error e
     | Ok bc ->
       (match Runner.Catalog.parse_vectors ~widths:bc.widths vector_strs with
        | Error e -> Error e
        | Ok vs -> Ok (tech, bc, vs)))

let or_die = function
  | Ok v -> v
  | Error e ->
    prerr_endline ("mtsize: " ^ e);
    exit 2

(* Solver-effort cap: small budgets deliberately force the engine's
   recovery ladder (or per-vector skips), which the resilience report
   then accounts for. *)
let newton_budget_term =
  let doc =
    "Cap the transistor-level engine's Newton iteration budget for the \
     DC operating-point solve and every recovery-ladder solve (a \
     transient step's nominal and step-halving solves keep their fixed \
     40-iteration budget).  Small values force recovery strategies or \
     per-vector skips instead of aborting; the run ends with a \
     resilience report.  0 (default) keeps the engine's own budgets."
  in
  Arg.(value & opt int 0 & info [ "newton-budget" ] ~docv:"N" ~doc)

let print_resilience stats =
  if stats.Eval.Resilience.attempted > 0 then
    Format.printf "%a@." Eval.Resilience.pp_report stats

(* Worker-domain count for the parallel subcommands.  0 (the default)
   means "one worker per available core"; results are identical whatever
   the value (Par.Pool's deterministic chunked scheduling). *)
let jobs_term =
  let doc =
    "Number of worker domains for the sweep/search ($(b,0) = one per \
     available core).  The output is bit-for-bit identical whatever \
     $(docv) is; only the wall time changes."
  in
  Arg.(value & opt int 0 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let engine_term =
  let doc =
    "Delay engine: $(b,bp) (the fast switch-level breakpoint tool, the \
     default) or $(b,spice) (the transistor-level reference)."
  in
  Arg.(
    value & opt (some string) None & info [ "engine" ] ~docv:"ENGINE" ~doc)

let resolve_engine = Option.map (fun s -> or_die (Eval.Engine.of_string s))

let fast_term =
  let doc =
    "Fast transient path for the transistor-level engine: $(b,off) \
     (exact, the default), $(b,reduce) (series-RC chain reduction, \
     exact up to LU rounding) or $(b,reduce-bypass) (reduction plus \
     quiescent-device bypass and LTE-controlled stepping, fastest, \
     within calibrated tolerance bands)."
  in
  Arg.(value & opt string "off" & info [ "fast" ] ~docv:"MODE" ~doc)

let resolve_fast s = or_die (Spice.Engine.Opts.fast_of_string s)

(* Evaluation-cache plumbing shared by the analysis subcommands: the
   cache is on by default (--no-cache disables), --cache-file FILE
   loads FILE when it exists and saves back on exit (so e.g. a search
   run warms a later sweep), --cache-stats prints the hit/miss/eviction
   report at the end. *)
type cache_opts = {
  cache : Eval.Cache.t option;
  cache_file : string option;
  show_stats : bool;
}

let cache_term =
  let off =
    let doc = "Disable the evaluation cache." in
    Arg.(value & flag & info [ "no-cache" ] ~doc)
  in
  let file =
    let doc =
      "Persist the evaluation cache: load $(docv) if it exists, save \
       back on exit.  Lets one run warm the next (e.g. $(b,search) \
       then $(b,sweep))."
    in
    Arg.(
      value & opt (some string) None & info [ "cache-file" ] ~docv:"FILE" ~doc)
  in
  let show =
    let doc = "Print cache hit/miss/eviction counters at the end." in
    Arg.(value & flag & info [ "cache-stats" ] ~doc)
  in
  let make off file show =
    if off then { cache = None; cache_file = None; show_stats = show }
    else
      let c =
        match file with
        | Some f when Sys.file_exists f ->
          (try Eval.Cache.load f
           with Failure m | Sys_error m ->
             prerr_endline ("mtsize: ignoring cache file: " ^ m);
             Eval.Cache.create ())
        | _ -> Eval.Cache.create ()
      in
      { cache = Some c; cache_file = file; show_stats = show }
  in
  Term.(const make $ off $ file $ show)

let finish_cache co =
  match (co.cache, co.cache_file) with
  | Some c, Some f ->
    (try Eval.Cache.save c f
     with Sys_error m -> prerr_endline ("mtsize: could not save cache: " ^ m))
  | _ -> ()

(* Observability plumbing, shared by every subcommand: --trace FILE
   writes a Chrome trace_event JSON of the run's spans, --metrics[=FILE]
   dumps the metrics registry as JSON lines (default stdout), --report
   prints the structured run report.  With none of the flags the run
   carries the shared no-op handle — zero overhead, bit-identical
   numeric output. *)
type obs_opts = {
  obs : Obs.t;
  trace_file : string option;
  metrics_out : string option; (* "-" = stdout *)
  report : bool;
  profile_out : string option; (* collapsed-stack flamegraph file *)
}

let obs_term =
  let trace =
    let doc =
      "Write the run's spans as Chrome trace_event JSON to $(docv) \
       (loadable in Perfetto / about:tracing); the registry counters \
       are embedded so $(b,mtsize trace-check) can validate the file \
       on its own."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let metrics =
    let doc =
      "Dump the metrics registry as JSON lines at the end of the run, \
       to $(docv) ($(b,-) or no value: stdout)."
    in
    Arg.(
      value
      & opt ~vopt:(Some "-") (some string) None
      & info [ "metrics" ] ~docv:"FILE" ~doc)
  in
  let report =
    let doc =
      "Print the run report at the end: solver effort, recovery-ladder \
       usage, cache hit rate, per-worker pool utilization, hottest \
       spans."
    in
    Arg.(value & flag & info [ "report" ] ~doc)
  in
  let profile =
    let doc =
      "Profile the run from its spans and write the call tree in \
       collapsed-stack format to $(docv) (default \
       $(b,profile.folded)) — one 'frame;frame self-µs' line per call \
       path, directly consumable by flamegraph tooling — plus the \
       timing-free per-label call counts (invariant in --jobs and \
       cache settings) to $(docv).golden.  Implies span collection."
    in
    Arg.(
      value
      & opt ~vopt:(Some "profile.folded") (some string) None
      & info [ "profile" ] ~docv:"FILE" ~doc)
  in
  let make trace metrics report profile =
    let obs =
      if trace <> None || metrics <> None || report || profile <> None then
        Obs.create ~trace:(trace <> None || profile <> None) ()
      else Obs.disabled
    in
    { obs; trace_file = trace; metrics_out = metrics; report;
      profile_out = profile }
  in
  Term.(const make $ trace $ metrics $ report $ profile)

(* End-of-run output, in registry order: publish the cache counters
   (idempotent set), render --cache-stats from the registry (the cache
   line and the run report now share one formatter), dump the metrics,
   write the trace, print the report. *)
let finish_obs ?co oo =
  let cache = Option.bind co (fun co -> co.cache) in
  let show_stats =
    match co with Some co -> co.show_stats | None -> false
  in
  (* --cache-stats is a registry view even when no obs flag was given:
     publish into a private registry so the formatting path is shared *)
  let obs =
    if show_stats && not (Obs.metrics_on oo.obs) then Obs.create ()
    else oo.obs
  in
  (match cache with
   | Some c when Obs.metrics_on obs -> Eval.Cache.publish c obs
   | _ -> ());
  if show_stats then begin
    match cache with
    | None -> Format.printf "cache: disabled@."
    | Some _ ->
      (match Obs.Report.cache_summary (Obs.metrics obs) with
       | Some line -> Format.printf "%s@." line
       | None -> ())
  end;
  (match oo.metrics_out with
   | None -> ()
   | Some "-" -> print_string (Obs.metrics_jsonl oo.obs)
   | Some f ->
     let oc = open_out f in
     Fun.protect
       ~finally:(fun () -> close_out oc)
       (fun () -> output_string oc (Obs.metrics_jsonl oo.obs)));
  (match oo.trace_file with
   | None -> ()
   | Some f -> Obs.write_trace oo.obs f);
  (match oo.profile_out with
   | None -> ()
   | Some f -> Obs.write_profile oo.obs f);
  if oo.report then print_string (Obs.report oo.obs)

(* A run's context, built as a batch job's is: the engine, jobs and
   Newton-budget flags are the job's overrides over a base context with
   the cache, observability and fast mode. *)
let cli_ctx ?(fast = `Off) ?kind ?engine ?jobs ?newton_budget ~obs co =
  let jobs =
    Option.map (fun n -> if n = 0 then Par.Pool.default_jobs () else n) jobs
  in
  let ov = { Runner.Spec.engine; jobs; newton_budget } in
  or_die (Runner.Spec.validate ov kind);
  Runner.job_ctx
    (Eval.Ctx.override ~fast ~obs ?cache:co.cache Eval.Ctx.default)
    Runner.Spec.no_overrides ov

(* A per-job error exits 1, but only after the cache is saved: the work
   done before the failure still persists to --cache-file. *)
let run_job ?fast ?engine ?jobs ?newton_budget tech bc kind co oo print =
  let ctx, stats =
    Eval.Ctx.for_job
      (cli_ctx ?fast:(Option.map resolve_fast fast) ~kind
         ?engine:(resolve_engine engine) ?jobs ?newton_budget ~obs:oo.obs co)
  in
  let ok =
    match Runner.compute ctx tech (Some bc) kind with
    | r ->
      print ctx r;
      true
    | exception Failure m ->
      prerr_endline ("mtsize: " ^ m);
      false
  in
  print_resilience stats;
  finish_cache co;
  finish_obs ~co oo;
  if not ok then exit 1

module Default = Runner.Spec.Default

let fmt_vector g =
  String.concat "," (List.map (fun (_, v) -> string_of_int v) g)

(* ---- subcommands ---------------------------------------------------------- *)

let sweep_cmd =
  let run tech_name circuit_name vectors wls engine fast budget jobs co oo =
    let tech, bc, _ = or_die (setup tech_name circuit_name vectors) in
    run_job ~fast ?engine ~jobs ~newton_budget:budget tech bc
      (Runner.Spec.Sweep { wls; vectors }) co oo
      (fun _ -> function
        | Runner.Measurements ms ->
          Format.printf "%s: %a@." bc.name Netlist.Circuit.pp_stats
            bc.circuit;
          List.iter
            (fun m -> Format.printf "%a@." Mtcmos.Sizing.pp_measurement m)
            ms
        | _ -> assert false)
  in
  let wls_term =
    let doc = "Sleep W/L values to sweep." in
    Arg.(
      value
      & opt (list float) Default.wls
      & info [ "w"; "wl" ] ~docv:"WLS" ~doc)
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Delay and degradation versus sleep size")
    Term.(const run $ tech_term $ circuit_term $ vectors_term $ wls_term
          $ engine_term $ fast_term $ newton_budget_term $ jobs_term
          $ cache_term $ obs_term)

let size_cmd =
  let run tech_name circuit_name vectors target engine fast budget jobs
      repair co oo =
    let tech, bc, _ = or_die (setup tech_name circuit_name vectors) in
    let repair =
      if repair then Some (Mtcmos.Resize.fix_weak_drivers bc.circuit)
      else None
    in
    let bc =
      match repair with
      | Some r -> { bc with circuit = r.Mtcmos.Resize.circuit }
      | None -> bc
    in
    run_job ~fast ?engine ~jobs ~newton_budget:budget tech bc
      (Runner.Spec.Size { target; vectors }) co oo
      (fun _ -> function
        | Runner.Sized { target; wl; measurement } ->
          (match repair with
           | Some { Mtcmos.Resize.upsized = _ :: _ as up; iterations; _ } ->
             Format.printf "repaired %d weak driver(s) in %d pass(es)@."
               (List.length up) iterations
           | _ -> ());
          Format.printf "minimum W/L for %.1f%% degradation: %.1f@."
            (100.0 *. target) wl;
          Format.printf "%a@." Mtcmos.Sizing.pp_measurement measurement
        | _ -> assert false)
  in
  let target_term =
    let doc = "Degradation budget as a fraction (0.05 = 5%)." in
    Arg.(value & opt float Default.target & info [ "target" ] ~docv:"FRAC" ~doc)
  in
  let repair_term =
    let doc =
      "First upsize weak drivers (the $(b,lint) screen) to a clean \
       circuit, then size its sleep transistor."
    in
    Arg.(value & flag & info [ "repair" ] ~doc)
  in
  Cmd.v
    (Cmd.info "size" ~doc:"Minimum sleep size for a delay budget")
    Term.(const run $ tech_term $ circuit_term $ vectors_term $ target_term
          $ engine_term $ fast_term $ newton_budget_term $ jobs_term
          $ repair_term $ cache_term $ obs_term)

let worst_cmd =
  let run tech_name circuit_name wl top sample co oo =
    let tech, bc, _ = or_die (setup tech_name circuit_name []) in
    run_job tech bc (Runner.Spec.Worst_vectors { wl; top; sample }) co oo
      (fun _ -> function
        | Runner.Ranked { pairs_examined; ranked } ->
          Format.printf "ranking %d vector pairs at W/L = %.0f...@."
            pairs_examined wl;
          List.iter
            (fun r ->
              let before, after = r.Mtcmos.Vectors.pair in
              Format.printf
                "(%s)->(%s)  delay %s  degradation %.1f%%  vx %s@."
                (fmt_vector before) (fmt_vector after)
                (Phys.Units.to_eng_string ~unit:"s" r.Mtcmos.Vectors.delay)
                (100.0 *. r.Mtcmos.Vectors.degradation)
                (Phys.Units.to_eng_string ~unit:"V"
                   r.Mtcmos.Vectors.vx_peak))
            ranked
        | _ -> assert false)
  in
  let wl_term =
    let doc = "Sleep transistor W/L." in
    Arg.(value & opt float Default.wl & info [ "w"; "wl" ] ~docv:"WL" ~doc)
  in
  let top_term =
    let doc = "How many worst vectors to print." in
    Arg.(value & opt int Default.top & info [ "top" ] ~docv:"N" ~doc)
  in
  let sample_term =
    let doc = "Random sample size for wide circuits." in
    Arg.(value & opt int Default.sample & info [ "sample" ] ~docv:"N" ~doc)
  in
  Cmd.v
    (Cmd.info "worst-vectors"
       ~doc:"Rank input transitions by MTCMOS susceptibility")
    Term.(const run $ tech_term $ circuit_term $ wl_term $ top_term
          $ sample_term $ cache_term $ obs_term)

let simulate_cmd =
  let run tech_name circuit_name vectors wl oo =
    let tech, bc, vecs = or_die (setup tech_name circuit_name vectors) in
    let before, after = List.hd vecs in
    let config =
      if wl > 0.0 then Mtcmos.Breakpoint_sim.mtcmos_config tech ~wl
      else Mtcmos.Breakpoint_sim.default_config
    in
    let r =
      Mtcmos.Breakpoint_sim.simulate_ints ~config ~obs:oo.obs bc.circuit
        ~before ~after
    in
    Format.printf "events: %d, finished at %s, vx peak %s, peak current %s@."
      (Mtcmos.Breakpoint_sim.events r)
      (Phys.Units.to_eng_string ~unit:"s" (Mtcmos.Breakpoint_sim.t_finish r))
      (Phys.Units.to_eng_string ~unit:"V" (Mtcmos.Breakpoint_sim.vx_peak r))
      (Phys.Units.to_eng_string ~unit:"A"
         (Mtcmos.Breakpoint_sim.peak_discharge_current r));
    Array.iter
      (fun n ->
        match Mtcmos.Breakpoint_sim.net_delay r n with
        | Some d ->
          Format.printf "  output %-8s delay %s@."
            (Netlist.Circuit.net_name bc.circuit n)
            (Phys.Units.to_eng_string ~unit:"s" d)
        | None ->
          Format.printf "  output %-8s (no transition)@."
            (Netlist.Circuit.net_name bc.circuit n))
      (Netlist.Circuit.outputs bc.circuit);
    finish_obs oo
  in
  let wl_term =
    let doc = "Sleep W/L; 0 simulates the conventional CMOS circuit." in
    Arg.(value & opt float 10.0 & info [ "w"; "wl" ] ~docv:"WL" ~doc)
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Simulate one transition with the fast tool")
    Term.(const run $ tech_term $ circuit_term $ vectors_term $ wl_term
          $ obs_term)

let compare_cmd =
  let run tech_name circuit_name vectors wl fast budget jobs co oo =
    let _tech, bc, vecs = or_die (setup tech_name circuit_name vectors) in
    (* both engines share one cache (distinct key spaces); the spice
       path's internal bp estimates can hit the bp run's entries *)
    let bp_ctx = cli_ctx ~engine:Eval.Engine.Breakpoint ~jobs ~obs:oo.obs co in
    let bp = Mtcmos.Sizing.delay_at ~ctx:bp_ctx bc.circuit ~vectors:vecs ~wl in
    let sp_ctx, stats =
      Eval.Ctx.for_job
        (cli_ctx ~fast:(resolve_fast fast) ~engine:Eval.Engine.Spice_level
           ~jobs ~newton_budget:budget ~obs:oo.obs co)
    in
    let sp = Mtcmos.Sizing.delay_at ~ctx:sp_ctx bc.circuit ~vectors:vecs ~wl in
    Format.printf "switch-level:     %a@." Mtcmos.Sizing.pp_measurement bp;
    Format.printf "transistor-level: %a@." Mtcmos.Sizing.pp_measurement sp;
    print_resilience stats;
    finish_cache co;
    finish_obs ~co oo
  in
  let wl_term =
    let doc = "Sleep transistor W/L." in
    Arg.(value & opt float 10.0 & info [ "w"; "wl" ] ~docv:"WL" ~doc)
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Compare the fast tool against the transistor-level engine")
    Term.(const run $ tech_term $ circuit_term $ vectors_term $ wl_term
          $ fast_term $ newton_budget_term $ jobs_term $ cache_term
          $ obs_term)

let estimate_cmd =
  let run tech_name circuit_name vectors co oo =
    let tech, bc, vecs = or_die (setup tech_name circuit_name vectors) in
    Format.printf "sum-of-widths estimate: W/L = %.1f@."
      (Mtcmos.Estimators.sum_of_widths bc.circuit);
    let before, after = List.hd vecs in
    let ip =
      Mtcmos.Estimators.peak_current_of_transition bc.circuit ~before ~after
    in
    let vb = Mtcmos.Estimators.v_budget_for_degradation tech ~target:0.05 in
    Format.printf "peak current: %s; 5%%-budget bounce limit %s@."
      (Phys.Units.to_eng_string ~unit:"A" ip)
      (Phys.Units.to_eng_string ~unit:"V" vb);
    if ip > 0.0 then
      Format.printf "peak-current estimate:  W/L = %.1f@."
        (Mtcmos.Estimators.peak_current_wl tech ~i_peak:ip ~v_budget:vb);
    let ctx = cli_ctx ~obs:oo.obs co in
    let wl =
      Mtcmos.Sizing.size_for_degradation ~ctx bc.circuit ~vectors:vecs
        ~target:0.05
    in
    Format.printf "simulator-driven size:  W/L = %.1f@." wl;
    finish_cache co;
    finish_obs ~co oo
  in
  Cmd.v
    (Cmd.info "estimate" ~doc:"Naive baselines versus the simulator size")
    Term.(const run $ tech_term $ circuit_term $ vectors_term $ cache_term
          $ obs_term)

let sta_cmd =
  let run tech_name circuit_name wl oo =
    let tech, bc, _ = or_die (setup tech_name circuit_name []) in
    let t = Mtcmos.Sta.analyze bc.circuit in
    let path = Mtcmos.Sta.critical_path t in
    Format.printf "static critical path: %s at %s@."
      (Netlist.Circuit.net_name bc.circuit path.Mtcmos.Sta.endpoint)
      (Phys.Units.to_eng_string ~unit:"s" path.Mtcmos.Sta.arrival);
    List.iter
      (fun gid ->
        let g = (Netlist.Circuit.gates bc.circuit).(gid) in
        Format.printf "  %-12s -> %-10s %s@."
          (Netlist.Gate.name g.Netlist.Circuit.kind)
          (Netlist.Circuit.net_name bc.circuit g.Netlist.Circuit.output)
          (Phys.Units.to_eng_string ~unit:"s" (Mtcmos.Sta.gate_delay t gid)))
      path.Mtcmos.Sta.through;
    if wl > 0.0 then begin
      let sleep =
        Mtcmos.Breakpoint_sim.Sleep_fet
          (Device.Sleep.make tech.Device.Tech.sleep_nmos ~wl
             ~vdd:tech.Device.Tech.vdd)
      in
      let hi = List.map (fun w -> (w, (1 lsl w) - 1)) bc.widths in
      let lo = List.map (fun w -> (w, 0)) bc.widths in
      let under =
        Mtcmos.Sta.mtcmos_underestimate t bc.circuit ~sleep
          ~vectors:[ (lo, hi); (hi, lo) ]
      in
      Format.printf
        "MTCMOS at W/L = %.0f runs %.1f%% past the static estimate@." wl
        (100.0 *. under)
    end;
    finish_obs oo
  in
  let wl_term =
    let doc = "Also quantify the MTCMOS underestimate at this sleep W/L." in
    Arg.(value & opt float 0.0 & info [ "w"; "wl" ] ~docv:"WL" ~doc)
  in
  Cmd.v
    (Cmd.info "sta" ~doc:"Static critical path (vectorless baseline)")
    Term.(const run $ tech_term $ circuit_term $ wl_term $ obs_term)

let select_cmd =
  let run tech_name circuit_name vectors delay_budget clusters objective
      passes bounce engine fast jobs co oo =
    let tech, bc, vecs = or_die (setup tech_name circuit_name vectors) in
    let objective =
      or_die (Runner.Catalog.select_objective_of_name objective)
    in
    run_job ~fast ?engine ~jobs tech bc
      (Runner.Spec.Select { delay_budget; clusters; objective; passes }) co oo
      (fun ctx -> function
        | Runner.Selected r ->
          let vx_peak =
            if bounce then
              Some
                (Mtcmos.Selective.bounce_peak ~ctx bc.circuit r
                   ~vectors:vecs)
            else None
          in
          Format.printf "%a@." (Mtcmos.Selective.pp_result ?vx_peak) r
        | _ -> assert false)
  in
  let budget_term =
    let doc =
      "Allowed critical-arrival increase over the all-low-Vt ideal-ground \
       baseline, as a fraction (0.1 = 10%)."
    in
    Arg.(
      value
      & opt float Default.delay_budget
      & info [ "delay-budget" ] ~docv:"FRAC" ~doc)
  in
  let clusters_term =
    let doc = "Number of sleep clusters to seed from the level bands." in
    Arg.(value & opt int Default.clusters & info [ "clusters" ] ~docv:"K" ~doc)
  in
  let objective_term =
    let doc = "What to minimize: $(b,leakage), $(b,area) or $(b,mixed)." in
    Arg.(
      value
      & opt string
          (Mtcmos.Selective.objective_name
             Default.select_objective)
      & info [ "objective" ] ~docv:"OBJ" ~doc)
  in
  let passes_term =
    let doc = "Refinement rounds for the reclaim/move phases." in
    Arg.(value & opt int Default.passes & info [ "passes" ] ~docv:"N" ~doc)
  in
  let bounce_term =
    let doc =
      "Also simulate the final answer's virtual-ground bounce over the \
       given $(b,--vectors) (default all-low -> all-high) and report the \
       worst peak."
    in
    Arg.(value & flag & info [ "bounce" ] ~doc)
  in
  Cmd.v
    (Cmd.info "select"
       ~doc:
         "Selective-MTCMOS co-optimization: per-gate Vt assignment, sleep \
          clustering and per-cluster sizing under a delay budget")
    Term.(const run $ tech_term $ circuit_term $ vectors_term $ budget_term
          $ clusters_term $ objective_term $ passes_term $ bounce_term
          $ engine_term $ fast_term $ jobs_term $ cache_term $ obs_term)

let energy_cmd =
  let run tech_name circuit_name wl oo =
    let _tech, bc, _ = or_die (setup tech_name circuit_name []) in
    let b = Mtcmos.Energy.budget bc.circuit ~wl in
    Format.printf "%a@." Mtcmos.Energy.pp_budget b;
    Format.printf "sleep-cycle overhead: %s@."
      (Phys.Units.to_eng_string ~unit:"J"
         (Mtcmos.Energy.sleep_cycle_overhead bc.circuit ~wl));
    Format.printf "break-even idle time: %s@."
      (Phys.Units.to_eng_string ~unit:"s"
         (Mtcmos.Energy.break_even_idle_time bc.circuit ~wl));
    finish_obs oo
  in
  let wl_term =
    let doc = "Sleep transistor W/L." in
    Arg.(value & opt float 10.0 & info [ "w"; "wl" ] ~docv:"WL" ~doc)
  in
  Cmd.v
    (Cmd.info "energy" ~doc:"Sleep-device energy budget and break-even")
    Term.(const run $ tech_term $ circuit_term $ wl_term $ obs_term)

let wakeup_cmd =
  let run tech_name circuit_name wl simulate oo =
    let _tech, bc, _ = or_die (setup tech_name circuit_name []) in
    let e = Mtcmos.Wakeup.estimate bc.circuit ~wl in
    Format.printf
      "rail capacitance %s, floats to %s in sleep, analytic wake %s@."
      (Phys.Units.to_eng_string ~unit:"F" e.Mtcmos.Wakeup.rail_capacitance)
      (Phys.Units.to_eng_string ~unit:"V" e.Mtcmos.Wakeup.v_float)
      (Phys.Units.to_eng_string ~unit:"s" e.Mtcmos.Wakeup.analytic);
    (if simulate then
      match Mtcmos.Wakeup.simulate bc.circuit ~wl with
      | t ->
        Format.printf "transistor-level wake (to 10%% Vdd): %s@."
          (Phys.Units.to_eng_string ~unit:"s" t)
      | exception Not_found ->
        Format.printf "transistor-level wake: did not settle@.");
    finish_obs oo
  in
  let wl_term =
    let doc = "Sleep transistor W/L." in
    Arg.(value & opt float 10.0 & info [ "w"; "wl" ] ~docv:"WL" ~doc)
  in
  let sim_term =
    let doc = "Also run the transistor-level wake transient." in
    Arg.(value & flag & info [ "simulate" ] ~doc)
  in
  Cmd.v
    (Cmd.info "wakeup" ~doc:"Sleep-exit latency analysis")
    Term.(const run $ tech_term $ circuit_term $ wl_term $ sim_term
          $ obs_term)

let deck_cmd =
  let run tech_name circuit_name wl out oo =
    let _tech, bc, _ = or_die (setup tech_name circuit_name []) in
    let stimuli =
      Array.to_list
        (Array.map
           (fun n -> (n, Phys.Pwl.constant 0.0))
           (Netlist.Circuit.inputs bc.circuit))
    in
    let config =
      if wl > 0.0 then Netlist.Expand.mtcmos ~wl else Netlist.Expand.default
    in
    let inst = Netlist.Expand.expand ~config bc.circuit ~stimuli in
    Spice.Deck.write_deck ~title:("mtsize export: " ^ bc.name)
      ~t_stop:10e-9 ~path:out inst.Netlist.Expand.netlist;
    Format.printf "wrote %s (%a)@." out Netlist.Transistor.pp_stats
      inst.Netlist.Expand.netlist;
    finish_obs oo
  in
  let wl_term =
    let doc = "Sleep W/L; 0 exports the conventional CMOS netlist." in
    Arg.(value & opt float 10.0 & info [ "w"; "wl" ] ~docv:"WL" ~doc)
  in
  let out_term =
    let doc = "Output file." in
    Arg.(value & opt string "out.sp" & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "export-deck"
       ~doc:"Write the expanded transistor netlist as a SPICE deck")
    Term.(const run $ tech_term $ circuit_term $ wl_term $ out_term
          $ obs_term)

let lint_cmd =
  let run tech_name circuit_name oo =
    let _tech, bc, _ = or_die (setup tech_name circuit_name []) in
    (match Mtcmos.Lint.check bc.circuit with
     | [] -> Format.printf "%s: clean@." bc.name
     | findings ->
       List.iter
         (fun f -> Format.printf "%a@." Mtcmos.Lint.pp_finding f)
         findings;
       let warnings =
         List.exists
           (fun f -> f.Mtcmos.Lint.severity = Mtcmos.Lint.Warning)
           findings
       in
       if warnings then exit 1);
    finish_obs oo
  in
  Cmd.v
    (Cmd.info "lint" ~doc:"MTCMOS design checks (exit 1 on warnings)")
    Term.(const run $ tech_term $ circuit_term $ obs_term)

let search_cmd =
  let run tech_name circuit_name wl restarts objective engine fast jobs co
      oo =
    let tech, bc, _ = or_die (setup tech_name circuit_name []) in
    let objective = or_die (Runner.Catalog.objective_of_name objective) in
    let kind =
      Runner.Spec.Search
        { wl; objective; restarts;
          seed = Default.search_seed;
          max_iters = Default.max_iters }
    in
    run_job ~fast ?engine ~jobs tech bc kind co oo
      (fun _ -> function
        | Runner.Found o ->
          let before, after = o.Mtcmos.Search.pair in
          Format.printf
            "worst found: (%s)->(%s) score %.4g (%d evaluations)@."
            (fmt_vector before) (fmt_vector after) o.Mtcmos.Search.score
            o.Mtcmos.Search.evaluations
        | _ -> assert false)
  in
  let wl_term =
    let doc = "Sleep transistor W/L." in
    Arg.(value & opt float Default.wl & info [ "w"; "wl" ] ~docv:"WL" ~doc)
  in
  let restarts_term =
    let doc = "Hill-climb restarts." in
    Arg.(value & opt int Default.restarts & info [ "restarts" ] ~docv:"N" ~doc)
  in
  let objective_term =
    let doc = "Objective: degradation | delay | vx | current." in
    Arg.(
      value
      & opt string
          (Runner.Catalog.objective_name Default.search_objective)
      & info [ "objective" ] ~docv:"OBJ" ~doc)
  in
  Cmd.v
    (Cmd.info "search"
       ~doc:"Stochastic worst-vector hunt for unenumerable spaces")
    Term.(const run $ tech_term $ circuit_term $ wl_term $ restarts_term
          $ objective_term $ engine_term $ fast_term $ jobs_term
          $ cache_term $ obs_term)

let dot_cmd =
  let run tech_name circuit_name out oo =
    let _tech, bc, _ = or_die (setup tech_name circuit_name []) in
    let dot = Netlist.Circuit.to_dot bc.circuit in
    (match out with
     | "-" -> print_string dot
     | path ->
       let oc = open_out path in
       Fun.protect
         ~finally:(fun () -> close_out oc)
         (fun () -> output_string oc dot);
       Format.printf "wrote %s (depth %d)@." path
         (Netlist.Circuit.logic_depth bc.circuit));
    finish_obs oo
  in
  let out_term =
    let doc = "Output file, or - for stdout." in
    Arg.(value & opt string "-" & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Export the gate graph as Graphviz")
    Term.(const run $ tech_term $ circuit_term $ out_term $ obs_term)

let workload_cmd =
  let run tech_name circuit_name wl period_ps cycles seed oo =
    let tech, bc, _ = or_die (setup tech_name circuit_name []) in
    let config =
      if wl > 0.0 then Mtcmos.Breakpoint_sim.mtcmos_config tech ~wl
      else Mtcmos.Breakpoint_sim.default_config
    in
    let vectors =
      Mtcmos.Sequence.random_workload ~seed ~widths:bc.widths cycles
    in
    let r =
      Mtcmos.Sequence.run ~config bc.circuit
        ~period:(period_ps *. 1e-12) ~vectors
    in
    List.iter
      (fun s -> Format.printf "%a@." Mtcmos.Sequence.pp_step s)
      r.Mtcmos.Sequence.steps;
    (match r.Mtcmos.Sequence.worst_delay with
     | Some (i, d) ->
       Format.printf "worst: cycle %d at %s; bounce %s; %d violation(s)@."
         i
         (Phys.Units.to_eng_string ~unit:"s" d)
         (Phys.Units.to_eng_string ~unit:"V" r.Mtcmos.Sequence.worst_vx)
         r.Mtcmos.Sequence.violations
     | None -> Format.printf "no output ever switched@.");
    finish_obs oo;
    if r.Mtcmos.Sequence.violations > 0 then exit 1
  in
  let wl_term =
    let doc = "Sleep W/L; 0 for conventional CMOS." in
    Arg.(value & opt float 10.0 & info [ "w"; "wl" ] ~docv:"WL" ~doc)
  in
  let period_term =
    let doc = "Clock period in picoseconds." in
    Arg.(value & opt float 2000.0 & info [ "period" ] ~docv:"PS" ~doc)
  in
  let cycles_term =
    let doc = "Number of random cycles." in
    Arg.(value & opt int 32 & info [ "cycles" ] ~docv:"N" ~doc)
  in
  let seed_term =
    let doc = "Workload seed." in
    Arg.(value & opt int 31 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  Cmd.v
    (Cmd.info "workload"
       ~doc:"Run a random multi-cycle workload (exit 1 on period \
             violations)")
    Term.(const run $ tech_term $ circuit_term $ wl_term $ period_term
          $ cycles_term $ seed_term $ obs_term)

let scale_cmd =
  (* The event-driven core's CLI surface: run a perturbation workload on
     a (typically generated) circuit, report per-step touched/activity/
     falling counts, and cross-check every step against the dense
     reference evaluator.  Everything printed is deterministic (no
     timings), so the golden suite pins it byte for byte. *)
  let run tech_name circuit_name steps flips seed oo =
    let _tech, bc, _ = or_die (setup tech_name circuit_name []) in
    let c = bc.circuit in
    if steps < 1 then or_die (Error "--steps must be >= 1");
    if flips < 1 then or_die (Error "--flips must be >= 1");
    let obs = oo.obs in
    let es = Netlist.Event_sim.of_circuit c in
    let n_inputs = Array.length (Netlist.Circuit.inputs c) in
    Format.printf "%a@." Netlist.Circuit.pp_stats c;
    Format.printf
      "event core: %d gates over %d nets; workload: %d step(s), %d \
       flip(s)/step, seed %d@."
      (Netlist.Event_sim.num_gates es)
      (Netlist.Event_sim.num_nets es)
      steps flips seed;
    let st = Random.State.make [| seed |] in
    let v =
      ref
        (Array.init n_inputs (fun _ ->
             Netlist.Signal.of_bool (Random.State.bool st)))
    in
    let state = ref (Netlist.Event_sim.init es !v) in
    let gates = Netlist.Circuit.num_gates c in
    let agree = ref true in
    let t_touched = ref 0 and t_act = ref 0 and t_fall = ref 0 in
    for i = 1 to steps do
      let v' = Array.copy !v in
      for _ = 1 to flips do
        let k = Random.State.int st n_inputs in
        v'.(k) <-
          (match v'.(k) with
           | Netlist.Signal.L1 -> Netlist.Signal.L0
           | Netlist.Signal.L0 | Netlist.Signal.X -> Netlist.Signal.L1)
      done;
      let m = Netlist.Event_sim.step ~obs es !state v' in
      let touched = List.length m.Netlist.Event_sim.touched in
      let act = Netlist.Event_sim.activity es m in
      let fall = List.length (Netlist.Event_sim.falling_gates es m) in
      (* dense cross-check, every step *)
      let s0 = Netlist.Logic_sim.eval c !v in
      let s1 = Netlist.Logic_sim.eval c v' in
      let ok =
        Netlist.Event_sim.levels es m.Netlist.Event_sim.post = s1
        && Netlist.Event_sim.switched_gates es m
           = Netlist.Logic_sim.switched_gates c s0 s1
        && Netlist.Event_sim.falling_gates es m
           = Netlist.Logic_sim.falling_gates c s0 s1
      in
      if not ok then agree := false;
      t_touched := !t_touched + touched;
      t_act := !t_act + act;
      t_fall := !t_fall + fall;
      Format.printf
        "step %2d: touched %d gate(s) (%.1f%%), activity %d, falling %d@."
        i touched
        (100.0 *. float_of_int touched /. float_of_int gates)
        act fall;
      state := m.Netlist.Event_sim.post;
      v := v'
    done;
    Format.printf
      "total: %d gate evals vs %d dense (%.1f%%); activity %d, falling \
       %d@."
      !t_touched (steps * gates)
      (100.0 *. float_of_int !t_touched /. float_of_int (steps * gates))
      !t_act !t_fall;
    Format.printf "event core agrees with dense reference: %s@."
      (if !agree then "yes" else "NO");
    finish_obs oo;
    if not !agree then exit 1
  in
  let steps_term =
    let doc = "Number of perturbation steps." in
    Arg.(value & opt int 16 & info [ "steps" ] ~docv:"N" ~doc)
  in
  let flips_term =
    let doc = "Input bits flipped per step." in
    Arg.(value & opt int 2 & info [ "flips" ] ~docv:"K" ~doc)
  in
  let seed_term =
    let doc = "Workload seed." in
    Arg.(value & opt int 11 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  Cmd.v
    (Cmd.info "scale"
       ~doc:
         "Drive the event-driven switch-level core over a perturbation \
          workload (use generated circuits like random20000 or \
          kogge16), cross-checking every step against the dense \
          evaluator.  Exit 1 on any disagreement.")
    Term.(const run $ tech_term $ circuit_term $ steps_term $ flips_term
          $ seed_term $ obs_term)

let run_cmd =
  let run jobfile out journal fresh stop_after engine jobs budget co oo =
    let spec = or_die (Runner.Spec.parse_file jobfile) in
    (* The CLI flags are the outermost defaults: a job file's (defaults
       ...) form overrides them, and a per-job override wins over both. *)
    let ctx =
      cli_ctx ?engine:(resolve_engine engine) ~jobs ~newton_budget:budget
        ~obs:oo.obs co
    in
    let stop_after = if stop_after > 0 then Some stop_after else None in
    let outcome =
      or_die (Runner.run ~ctx ?journal ~fresh ?stop_after spec)
    in
    (match out with
     | "-" -> print_string outcome.Runner.manifest
     | path ->
       let oc = open_out path in
       Fun.protect
         ~finally:(fun () -> close_out oc)
         (fun () -> output_string oc outcome.Runner.manifest));
    Format.eprintf
      "run: %d job(s) — %d executed, %d replayed; %d ok, %d degraded, %d \
       failed%s@."
      outcome.Runner.total outcome.Runner.executed outcome.Runner.replayed
      outcome.Runner.ok outcome.Runner.degraded outcome.Runner.failed
      (if outcome.Runner.interrupted then " (interrupted)" else "");
    finish_cache co;
    finish_obs ~co oo;
    if outcome.Runner.failed > 0 then exit 1
  in
  let jobfile_term =
    let doc = "The batch job file (S-expressions; see the README)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"JOBFILE" ~doc)
  in
  let out_term =
    let doc = "Where to write the JSON manifest ($(b,-) = stdout)." in
    Arg.(value & opt string "-" & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let journal_term =
    let doc =
      "Checkpoint each completed job to $(docv); re-running with the \
       same job file resumes after the last completed job and produces \
       a manifest byte-identical to an uninterrupted run."
    in
    Arg.(
      value & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc)
  in
  let fresh_term =
    let doc = "Ignore (and truncate) an existing journal." in
    Arg.(value & flag & info [ "fresh" ] ~doc)
  in
  let stop_after_term =
    let doc =
      "Stop after executing $(docv) fresh jobs (0 = run to completion). \
       A testing hook: simulates an interrupt so the journal-resume \
       path can be exercised deterministically."
    in
    Arg.(value & opt int 0 & info [ "stop-after" ] ~docv:"N" ~doc)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Execute a batch job file through one shared evaluation \
          context (single cache, one worker pool, per-job failure \
          isolation); exit 1 if any job failed.")
    Term.(const run $ jobfile_term $ out_term $ journal_term $ fresh_term
          $ stop_after_term $ engine_term $ jobs_term $ newton_budget_term
          $ cache_term $ obs_term)

(* ---- serve / submit: the sizing daemon ----------------------------------- *)

let endpoint_of socket port =
  match (socket, port) with
  | Some path, None -> Serve.Daemon.Unix_socket path
  | None, Some p when p > 0 && p < 65536 -> Serve.Daemon.Tcp p
  | None, Some p -> or_die (Error (Printf.sprintf "--port %d: out of range" p))
  | _ -> or_die (Error "exactly one of --socket PATH or --port N is required")

let socket_term =
  let doc = "Listen on (or connect to) a Unix domain socket at $(docv)." in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let port_term =
  let doc = "Listen on (or connect to) TCP loopback port $(docv)." in
  Arg.(value & opt (some int) None & info [ "port" ] ~docv:"PORT" ~doc)

let serve_cmd =
  let run socket port spool depth workers shards max_requests recover_only
      engine jobs budget co oo =
    let endpoint = endpoint_of socket port in
    if depth < 1 then or_die (Error "--queue-depth must be >= 1");
    if workers < 1 then or_die (Error "--workers must be >= 1");
    if shards < 1 then or_die (Error "--cache-shards must be >= 1");
    (* the daemon shares one cache across worker threads: stripe it so
       concurrent batches do not serialize on a single lock *)
    let co =
      { co with
        cache =
          (match co.cache with
           | None -> None
           | Some _ ->
             Some
               (match co.cache_file with
                | Some f when Sys.file_exists f ->
                  (try Eval.Cache.load ~shards f
                   with Failure m | Sys_error m ->
                     prerr_endline ("mtsize: ignoring cache file: " ^ m);
                     Eval.Cache.create ~shards ())
                | _ -> Eval.Cache.create ~shards ())) }
    in
    (* /metrics needs a live registry even when no --metrics flag was
       given locally *)
    let obs = if Obs.enabled oo.obs then oo.obs else Obs.create () in
    let ctx =
      cli_ctx ?engine:(resolve_engine engine) ~jobs ~newton_budget:budget ~obs
        co
    in
    let cfg =
      { Serve.Daemon.endpoint;
        spool;
        queue_depth = depth;
        workers;
        max_requests = (if max_requests > 0 then Some max_requests else None);
        recover_only;
        read_timeout_s = 10.0 }
    in
    (match Serve.Daemon.run ~ctx cfg with
     | Ok recovered ->
       Format.eprintf "serve: drained cleanly (%d request(s) recovered)@."
         recovered
     | Error e -> or_die (Error e));
    finish_cache co;
    finish_obs ~co oo
  in
  let spool_term =
    let doc =
      "Spool directory for request specs, journals and manifests \
       (created if missing).  This is the daemon's crash-recovery \
       state: restarting with the same spool finishes interrupted \
       requests with byte-identical manifests."
    in
    Arg.(required & opt (some string) None & info [ "spool" ] ~docv:"DIR" ~doc)
  in
  let depth_term =
    let doc =
      "Waiting-queue capacity.  A submit that finds the queue full is \
       answered with an explicit $(b,rejected) event, never blocked."
    in
    Arg.(value & opt int 16 & info [ "queue-depth" ] ~docv:"N" ~doc)
  in
  let workers_term =
    let doc = "Concurrent batch executors." in
    Arg.(value & opt int 2 & info [ "workers" ] ~docv:"N" ~doc)
  in
  let shards_term =
    let doc =
      "Lock stripes in the shared evaluation cache.  More stripes, \
       less contention between concurrent batches; counters and cached \
       values are shard-count-invariant."
    in
    Arg.(value & opt int 16 & info [ "cache-shards" ] ~docv:"N" ~doc)
  in
  let max_requests_term =
    let doc =
      "Drain and exit after $(docv) finished requests (0 = serve \
       forever).  A testing hook."
    in
    Arg.(value & opt int 0 & info [ "max-requests" ] ~docv:"N" ~doc)
  in
  let recover_only_term =
    let doc =
      "Replay interrupted requests from the spool, write their \
       manifests, and exit without listening.  A recovery/testing hook."
    in
    Arg.(value & flag & info [ "recover-only" ] ~doc)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Long-lived sizing daemon: accepts batch job files over a \
          Unix/TCP socket, runs them concurrently through one shared \
          evaluation context (sharded cache), streams per-job manifest \
          fragments, and recovers interrupted requests from its spool \
          after a crash.  GET /metrics and /healthz are served on the \
          same socket.  SIGTERM/SIGINT drain gracefully.")
    Term.(const run $ socket_term $ port_term $ spool_term $ depth_term
          $ workers_term $ shards_term $ max_requests_term
          $ recover_only_term $ engine_term $ jobs_term $ newton_budget_term
          $ cache_term $ obs_term)

let submit_cmd =
  let run jobfile socket port rid deadline out quiet =
    let endpoint = endpoint_of socket port in
    let spec =
      match
        In_channel.with_open_bin jobfile In_channel.input_all
      with
      | s -> s
      | exception Sys_error m -> or_die (Error m)
    in
    if not (Serve.Protocol.valid_id rid) then
      or_die
        (Error
           (Printf.sprintf "--id %S: use 1-64 chars from [A-Za-z0-9_-]" rid));
    let on_event line = if not quiet then Format.eprintf "%s@." line in
    match
      Serve.Client.submit ~on_event endpoint ~rid
        ?deadline_s:(if deadline > 0.0 then Some deadline else None)
        ~spec ()
    with
    | Error e -> or_die (Error e)
    | Ok (Serve.Client.Manifest { manifest; failed }) ->
      (match out with
       | "-" -> print_string manifest
       | path ->
         let oc = open_out path in
         Fun.protect
           ~finally:(fun () -> close_out oc)
           (fun () -> output_string oc manifest));
      if failed then exit 1
    | Ok (Serve.Client.Rejected reason) ->
      Format.eprintf "submit: rejected: %s@." reason;
      exit 3
    | Ok Serve.Client.Deadline ->
      Format.eprintf
        "submit: deadline expired; resubmit the same id to resume@.";
      exit 4
    | Ok (Serve.Client.Remote_error m) ->
      Format.eprintf "submit: %s@." m;
      exit 2
  in
  let jobfile_term =
    let doc = "The batch job file to submit." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"JOBFILE" ~doc)
  in
  let id_term =
    let doc =
      "Request id (spool file name on the daemon).  Resubmitting the \
       same id resumes or replays instead of recomputing."
    in
    Arg.(required & opt (some string) None & info [ "id" ] ~docv:"ID" ~doc)
  in
  let deadline_term =
    let doc =
      "Per-request deadline in seconds; the daemon stops the batch at \
       the next job boundary once it expires."
    in
    Arg.(value & opt float 0.0 & info [ "deadline" ] ~docv:"SECONDS" ~doc)
  in
  let out_term =
    let doc = "Where to write the manifest ($(b,-) = stdout)." in
    Arg.(value & opt string "-" & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let quiet_term =
    let doc = "Suppress the event stream on stderr." in
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc)
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Submit a batch job file to a running $(b,mtsize serve) daemon \
          and stream its events; exit 0 with the manifest on stdout (or \
          $(b,-o) FILE), 1 if any job failed, 2 on a request error, 3 \
          if rejected (queue full), 4 on deadline expiry.")
    Term.(const run $ jobfile_term $ socket_term $ port_term $ id_term
          $ deadline_term $ out_term $ quiet_term)

let trace_check_cmd =
  let run file =
    match Obs.Trace.validate_file file with
    | Ok chk ->
      Format.printf "%s: OK — %d event(s) on %d thread(s)@." file
        chk.Obs.Trace.events_checked chk.Obs.Trace.tids;
      List.iter
        (fun (what, spans, counter) ->
          Format.printf "  %-28s spans %-6d counter %d@." what spans counter)
        chk.Obs.Trace.reconciled
    | Error msgs ->
      List.iter (fun m -> Format.eprintf "%s: %s@." file m) msgs;
      exit 1
  in
  let file_term =
    let doc = "Chrome trace file written by $(b,--trace)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "trace-check"
       ~doc:
         "Validate a --trace file: well-formed trace_event JSON, proper \
          span nesting per thread, and span totals reconciling (±1) \
          with the embedded registry counters.  Exit 1 on any failure.")
    Term.(const run $ file_term)

let () =
  let info =
    Cmd.info "mtsize" ~version:"1.0.0"
      ~doc:"MTCMOS sleep-transistor sizing tool (DAC 1997 reproduction)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ sweep_cmd; size_cmd; worst_cmd; simulate_cmd; compare_cmd;
            estimate_cmd; sta_cmd; select_cmd; energy_cmd; wakeup_cmd;
            deck_cmd; lint_cmd; search_cmd; workload_cmd; dot_cmd;
            trace_check_cmd; scale_cmd; run_cmd; serve_cmd; submit_cmd ]))
