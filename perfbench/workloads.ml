(* The four paper workloads.

   Each workload is set up once per run ([setup], the part reported as
   [setup_s]) and then driven as a closed loop of passes: one pass runs
   the workload's operations back to back, each through a fresh context
   whose cache (when on) starts empty.  A pass returns one output
   string per operation; [Main] compares them with the references
   from [expected] (recorded below, or computed by an independent
   cache-off, jobs=1 run when the output depends on the seed).

   Every benchmark-side call into a layer's public entry point is
   wrapped in a ["bench.<module>.<function>"] span, so a traced pass
   splits its time outside-in; the program's own spans and registry
   counters land in the same [Obs.t]. *)

module Catalog = Runner.Catalog

type pass = {
  units : int;  (** throughput units completed (analyses, pairs, ...) *)
  outputs : string list;  (** one check string per operation *)
  degraded : int;  (** operations that finished with skipped work *)
  analyses : int;  (** transistor-level analyses attempted *)
  recovered : int;  (** of which needed the recovery ladder *)
}

type instance = {
  pass : cache:bool -> obs:Obs.t -> pass;
  expected : unit -> string list;
      (** reference outputs of one pass, in operation order *)
  probes : unit -> (string * float) list;
      (** workload-specific per-layer measurements, taken after the
          traced pass *)
  compile_s : float;  (** [Event_sim.compile] time of the circuits *)
}

type t = {
  name : string;
  unit_label : string;  (** what [units] counts *)
  setup : seed:int -> instance;
}

let ok = function Ok v -> v | Error e -> failwith e
let span obs name f = Obs.with_span obs ("bench." ^ name) f

(* Outputs of an operation that raised: never equal to a reference. *)
let error_output e = "error: " ^ Printexc.to_string e

(* A pass that runs no transistor-level analysis. *)
let plain_pass ~units outputs =
  { units; outputs; degraded = 0; analyses = 0; recovered = 0 }

let compile_time circuits =
  let (), s =
    Util.timed (fun () ->
        List.iter (fun c -> ignore (Netlist.Event_sim.compile c)) circuits)
  in
  s

(* Every cache a traced pass creates, so [Main] can total their
   counters afterwards (each operation gets its own).  Untraced passes
   keep none: a retained cache would grow the heap pass after pass. *)
let caches = ref []

let base_ctx ~cache ~obs ~jobs =
  let ctx = Eval.Ctx.default |> Eval.Ctx.with_jobs jobs |> Eval.Ctx.with_obs obs in
  if cache then begin
    let c = Eval.Cache.create () in
    if Obs.enabled obs then caches := c :: !caches;
    Eval.Ctx.with_cache c ctx
  end
  else ctx

(* Seeded inputs: the program only ever sees the generated values. *)
let rng ~seed tag = Random.State.make [| seed; tag |]

let random_pairs st ~widths n =
  let pick () = List.map (fun w -> (w, Random.State.int st (1 lsl w))) widths in
  List.init n (fun _ ->
      let before = pick () in
      (before, pick ()))

(* ---- spice_size --------------------------------------------------------- *)

(* adder8, default all-low -> all-high vector, 5 % target, jobs=1.
   The [`Off] answer is recorded bit for bit; the reduce-bypass answer
   must stay inside the fast path's calibrated 10 % band around it. *)
let spice_wl_ref = 0x1.1cb44aef2547ap+8
let rb_band = 0.10

let rb_output wl =
  if Float.abs (wl -. spice_wl_ref) <= rb_band *. spice_wl_ref then "in-band"
  else "out-of-band " ^ Util.hex wl

let spice_size_setup ~seed:_ =
  let tech = ok (Catalog.tech_of_name "07um") in
  let bc = ok (Catalog.circuit_of_name tech "adder8") in
  let vectors = Catalog.default_vectors bc.Catalog.widths in
  let circuit = bc.Catalog.circuit in
  (* factorizations and wall time of the [`Off] run in the last traced
     pass, for the [la.share] estimate *)
  let off_run = ref (0, 0.0) in
  let size ~cache ~obs fast =
    let stats = Eval.Resilience.create () in
    if Obs.metrics_on obs then Eval.Resilience.attach_obs stats obs;
    let ctx =
      base_ctx ~cache ~obs ~jobs:1
      |> Eval.Ctx.with_engine Eval.Engine.Spice_level
      |> Eval.Ctx.with_fast fast
      |> Eval.Ctx.with_stats stats
    in
    let factorizations () =
      Obs.Metrics.count (Obs.metrics obs) "spice.factorizations"
    in
    let f0 = factorizations () in
    let out, s =
      Util.timed (fun () ->
          try
            let wl =
              span obs "sizing.size_for_degradation" (fun () ->
                  Mtcmos.Sizing.size_for_degradation ~ctx circuit ~vectors
                    ~target:0.05)
            in
            if fast = `Off then Util.hex wl else rb_output wl
          with e -> error_output e)
    in
    if fast = `Off && Obs.metrics_on obs then off_run := (factorizations () - f0, s);
    (out, stats)
  in
  let pass ~cache ~obs =
    let runs = List.map (size ~cache ~obs) [ `Off; `Reduce_bypass ] in
    let sum f = List.fold_left (fun a (_, s) -> a + f s) 0 runs in
    let analyses = sum (fun s -> s.Eval.Resilience.attempted) in
    { units = analyses;
      outputs = List.map fst runs;
      degraded =
        List.length
          (List.filter (fun (_, s) -> s.Eval.Resilience.skipped > 0) runs);
      analyses;
      recovered = sum (fun s -> s.Eval.Resilience.recovered) }
  in
  let expected () = [ Util.hex spice_wl_ref; "in-band" ] in
  let probes () =
    let spice, sys = Probes.spice ~tech ~circuit ~vectors ~wl:spice_wl_ref in
    let la = Probes.la sys in
    let bp_wl = Mtcmos.Sizing.size_for_degradation circuit ~vectors ~target:0.05 in
    (* an estimate: the probe's per-call factor + solve cost on the
       [`Off] pattern, times the [`Off] run's factorizations, over that
       run's wall time *)
    let factorizations, off_s = !off_run in
    let per_call_s =
      1e-6 *. (List.assoc "la.factor_us" la +. List.assoc "la.solve_us" la)
    in
    let share =
      if off_s > 0.0 then per_call_s *. float_of_int factorizations /. off_s else 0.0
    in
    spice @ la
    @ [ ("la.share", share);
        ("model_err", Float.abs (bp_wl -. spice_wl_ref) /. spice_wl_ref) ]
  in
  { pass; expected; probes; compile_s = compile_time [ circuit ] }

let spice_size =
  { name = "spice_size"; unit_label = "analyses"; setup = spice_size_setup }

(* ---- vector_sweep ------------------------------------------------------- *)

(* The §6.2 vector-space ranking at W/L 10 with the breakpoint engine:
   every adder3 pair, then seeded random pairs on adder8 and on mult8
   in the 0.3 um card.  [Vectors.rank] is given jobs=2, what a user
   asking for two workers passes. *)
let adder8_pairs = 1500
let mult8_pairs = 40

(* Digest of one ranking, every float bit for bit. *)
let ranking_output ranking =
  Util.digest
    (List.map
       (fun (r : Mtcmos.Vectors.ranking) ->
         String.concat " "
           [ Catalog.vector_string r.Mtcmos.Vectors.pair;
             Util.hex r.Mtcmos.Vectors.delay;
             Util.hex r.Mtcmos.Vectors.cmos_delay;
             Util.hex r.Mtcmos.Vectors.degradation;
             Util.hex r.Mtcmos.Vectors.vx_peak ])
       ranking)

(* Recorded ranking digests: adder3 (seed-free), then adder8 and mult8
   for the default seed 1 and the held-out seed 2. *)
let adder3_ref = "ba8f0897e0d5011b356cb0ef8f938c98"
let vector_refs =
  [ (1, [ "119cad5ecfb6468199ad8c86d18a459d"; "35c71475638bf39920e549146d304453" ]);
    (2, [ "8ad270bbc7b93348df2975dddcb8960f"; "b0888fbfdc0178f8c89fc0fa8b685d44" ]) ]

let vector_sweep_setup ~seed =
  let t07 = ok (Catalog.tech_of_name "07um") in
  let t03 = ok (Catalog.tech_of_name "03um") in
  let a3 = ok (Catalog.circuit_of_name t07 "adder3") in
  let a8 = ok (Catalog.circuit_of_name t07 "adder8") in
  let m8 = ok (Catalog.circuit_of_name t03 "mult8") in
  let cases =
    [ (a3, t07, Mtcmos.Vectors.enumerate_pairs ~widths:a3.Catalog.widths);
      (a8, t07, random_pairs (rng ~seed 8) ~widths:a8.Catalog.widths adder8_pairs);
      (m8, t03, random_pairs (rng ~seed 88) ~widths:m8.Catalog.widths mult8_pairs) ]
  in
  let rank ctx (bc, tech, pairs) =
    try
      ranking_output
        (span ctx.Eval.Ctx.obs "vectors.rank" (fun () ->
             Mtcmos.Vectors.rank ~ctx bc.Catalog.circuit
               ~sleep:(Util.sleep_fet tech ~wl:10.0) ~pairs))
    with e -> error_output e
  in
  let units = List.fold_left (fun a (_, _, p) -> a + List.length p) 0 cases in
  let pass ~cache ~obs =
    plain_pass ~units
      (List.map (fun case -> rank (base_ctx ~cache ~obs ~jobs:2) case) cases)
  in
  let expected () =
    adder3_ref
    :: (match List.assoc_opt seed vector_refs with
        | Some refs -> refs
        | None -> List.map (rank Eval.Ctx.default) (List.tl cases))
  in
  let probes () =
    let _, _, a8_pairs = List.nth cases 1 in
    Probes.event_sim a8.Catalog.circuit (List.filteri (fun i _ -> i < 300) a8_pairs)
  in
  { pass; expected; probes;
    compile_s =
      compile_time (List.map (fun (bc, _, _) -> bc.Catalog.circuit) cases) }

let vector_sweep =
  { name = "vector_sweep"; unit_label = "pairs"; setup = vector_sweep_setup }

(* ---- select_kogge ------------------------------------------------------- *)

(* [Selective.optimize] on kogge16: 10 % budget, 4 clusters, leakage
   objective, jobs=1.  The whole answer is a pure function of the
   inputs, so it is recorded as one digest. *)
let select_ref = "9a21f93bac6321351575ebf964abd87b"

let select_output (r : Mtcmos.Selective.result) =
  Util.digest
    [ String.concat ""
        (Array.to_list
           (Array.map (fun h -> if h then "H" else "L") r.Mtcmos.Selective.vt_high));
      String.concat " " (Array.to_list (Array.map Util.hex r.Mtcmos.Selective.sleep_wl));
      Util.hex r.Mtcmos.Selective.leakage;
      string_of_int r.Mtcmos.Selective.evaluations ]

let select_kogge_setup ~seed:_ =
  let tech = ok (Catalog.tech_of_name "07um") in
  let bc = ok (Catalog.circuit_of_name tech "kogge16") in
  let circuit = bc.Catalog.circuit in
  (* the last pass's answer and optimize time *)
  let last = ref None in
  let pass ~cache ~obs =
    let ctx = base_ctx ~cache ~obs ~jobs:1 in
    match
      Util.timed (fun () ->
          span obs "selective.optimize" (fun () ->
              Mtcmos.Selective.optimize ~ctx ~objective:Mtcmos.Selective.Leakage
                ~clusters:4 circuit ~delay_budget:0.1))
    with
    | r, s ->
      last := Some (r, s);
      plain_pass ~units:r.Mtcmos.Selective.evaluations [ select_output r ]
    | exception e -> plain_pass ~units:0 [ error_output e ]
  in
  let probes () =
    match !last with
    | None -> []
    | Some (r, optimize_s) ->
      let analyze_us ~vt_high =
        let gating =
          Mtcmos.Selective.gating ~vt_high
            ~cluster_of_gate:r.Mtcmos.Selective.cluster_of_gate
            ~sleep_wl:r.Mtcmos.Selective.sleep_wl
        in
        Util.per_call_us ~reps:20 (fun () ->
            ignore (Mtcmos.Sta.analyze ~gating circuit))
      in
      let final = analyze_us ~vt_high:r.Mtcmos.Selective.vt_high in
      (* the optimizer starts all-high-Vt, where a timing run is
         cheapest; the answer is where it is dearest *)
      let start =
        analyze_us ~vt_high:(Array.map (fun _ -> true) r.Mtcmos.Selective.vt_high)
      in
      (* an estimate: one timing run per cache miss of the traced pass,
         each costing the mean of the two probed costs *)
      let misses =
        List.fold_left
          (fun a c -> a + (Eval.Cache.counters c).Eval.Cache.misses)
          0 !caches
      in
      let mean_s = 1e-6 *. 0.5 *. (start +. final) in
      [ ("sta.analyze_us", final);
        ("sta.share", mean_s *. float_of_int misses /. optimize_s) ]
  in
  { pass; expected = (fun () -> [ select_ref ]); probes;
    compile_s = compile_time [ circuit ] }

let select_kogge =
  { name = "select_kogge"; unit_label = "evaluations"; setup = select_kogge_setup }

(* ---- batch_warm --------------------------------------------------------- *)

(* One [Runner.Exec.run] over a mixed spec whose second half repeats
   the first under new ids, at jobs=2.  The search and Monte-Carlo
   seeds come from the workload seed.  The reference is the manifest of
   a cache-off, jobs=1 run of the same spec. *)
let batch_text ~seed =
  let st = rng ~seed 0xba7c in
  let search_seed = Random.State.int st 1_000_000 in
  let mc_seed = Random.State.int st 1_000_000 in
  let jobs =
    [ ("sweep", "sw", "(circuit a8) (wls 2 5 10 20 50 100)");
      ("size", "sz", "(circuit a8) (target 0.05)");
      ("size", "sp", "(circuit ch) (target 0.05) (engine spice)");
      ("sweep", "ss", "(circuit ch) (wls 5 20) (engine spice)");
      ("worst-vectors", "wv", "(circuit a4) (wl 10) (top 5)");
      ( "search", "se",
        Printf.sprintf "(circuit a4) (wl 10) (restarts 4) (seed %d) (max-iters 200)"
          search_seed );
      ( "monte-carlo", "mc",
        Printf.sprintf "(circuit a3) (wl 10) (n 32) (seed %d)" mc_seed );
      ( "characterize", "ch",
        "(gate nand2) (loads 1e-14 2e-14 4e-14) (ramps 2e-11 5e-11)" );
      ("select", "sl", "(circuit k8) (delay-budget 0.1) (clusters 3)") ]
  in
  let half prefix =
    List.map
      (fun (kind, id, fields) ->
        Printf.sprintf "  (job %s %s-%s %s)" kind prefix id fields)
      jobs
  in
  String.concat "\n"
    ([ "(batch";
       "  (tech 07um)";
       "  (circuit ch chain)";
       "  (circuit a3 adder3)";
       "  (circuit a4 adder4)";
       "  (circuit a8 adder8)";
       "  (circuit k8 kogge8)" ]
    @ half "a" @ half "b" @ [ ")" ])

let batch_warm_setup ~seed =
  let text = batch_text ~seed in
  let spec = ok (Runner.Spec.parse_string text) in
  let tech = ok (Catalog.tech_of_name spec.Runner.Spec.tech) in
  let circuits =
    List.map
      (fun (_, name) -> (ok (Catalog.circuit_of_name tech name)).Catalog.circuit)
      spec.Runner.Spec.circuits
  in
  let run ctx ~times =
    let t = ref (Util.now ()) in
    let on_fragment ~id:_ ~status:_ _ =
      let t1 = Util.now () in
      times := (t1 -. !t) :: !times;
      t := t1
    in
    span ctx.Eval.Ctx.obs "runner.exec" (fun () ->
        Runner.run ~ctx ~on_fragment spec)
  in
  (* the jobs' wall times in the last run, from the fragment stream *)
  let job_s = ref [] in
  let output ctx =
    let times = ref [] in
    let r = try run ctx ~times with e -> Error (Printexc.to_string e) in
    job_s := List.rev !times;
    match r with
    | Ok o ->
      let bad = o.Runner.failed + o.Runner.degraded in
      ( (Util.digest [ o.Runner.manifest ]
        ^ if bad > 0 then Printf.sprintf " (%d failed or degraded)" bad else ""),
        o.Runner.total,
        o.Runner.degraded )
    | Error e -> ("error: " ^ e, 0, 0)
  in
  let pass ~cache ~obs =
    let out, units, degraded = output (base_ctx ~cache ~obs ~jobs:2) in
    { (plain_pass ~units [ out ]) with degraded }
  in
  let expected () =
    let out, _, _ = output (base_ctx ~cache:false ~obs:Obs.disabled ~jobs:1) in
    [ out ]
  in
  let probes () =
    let parse_s =
      Util.median
        (List.init 21 (fun _ ->
             snd (Util.timed (fun () -> ignore (Runner.Spec.parse_string text)))))
    in
    let jobs = !job_s in
    [ ("runner.parse_s", parse_s);
      ("runner.job_s.p50", if jobs = [] then 0.0 else Util.median jobs);
      ("runner.job_s.max", List.fold_left Float.max 0.0 jobs) ]
  in
  { pass; expected; probes; compile_s = compile_time circuits }

let batch_warm =
  { name = "batch_warm"; unit_label = "jobs"; setup = batch_warm_setup }

let all = [ spice_size; vector_sweep; select_kogge; batch_warm ]
