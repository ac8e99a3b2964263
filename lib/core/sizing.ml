module BP = Breakpoint_sim

type vector_pair = (int * int) list * (int * int) list

type measurement = {
  wl : float;
  cmos_delay : float;
  mtcmos_delay : float;
  degradation : float;
  vx_peak : float;
}

let resolve ?ctx () = Option.value ctx ~default:Eval.Ctx.default

let worst_delay_bp ?cache ?obs ~config c vectors =
  List.fold_left
    (fun (dmax, vxmax) (before, after) ->
      let d, vx, _ = Cached.bp_metrics ?cache ?obs ~config c ~before ~after in
      let d = Option.value d ~default:0.0 in
      (Float.max dmax d, Float.max vxmax vx))
    (0.0, 0.0) vectors

let vector_label (before, after) =
  let fmt g =
    String.concat "," (List.map (fun (_, v) -> string_of_int v) g)
  in
  Printf.sprintf "(%s)->(%s)" (fmt before) (fmt after)

(* one vector's transistor-level measurement, with graceful
   degradation: record the diagnosis and fall back to the
   breakpoint-simulator estimate for this vector instead of aborting
   the whole sweep.  Cached per (circuit, spice config, fallback
   config, vector): the entry stores the post-fallback (delay, vx)
   together with the resilience deltas the computation recorded, so a
   hit replays the exact counters of the miss that filled it. *)
let spice_vector ?cache ?obs ~config ~bp_config ?stats c (before, after) =
  let compute stats =
    match Spice_ref.run_ints_r ~config ?obs c ~before ~after with
    | Ok r ->
      Eval.Resilience.record_success ?stats (Spice_ref.telemetry r);
      let d =
        match Spice_ref.critical_delay r with
        | Some (_, d) -> d
        | None -> 0.0
      in
      (d, Spice_ref.vx_peak r)
    | Error f ->
      Eval.Resilience.record_skip ?stats ~kind:Eval.Resilience.Estimated
        ~label:(vector_label (before, after))
        f;
      let r = BP.simulate_ints ~config:bp_config ?obs c ~before ~after in
      let d =
        match BP.critical_delay r with
        | Some (_, d) -> d
        | None -> 0.0
      in
      (d, BP.vx_peak r)
  in
  match (cache, Cached.bp_config_key bp_config) with
  | None, _ | _, None -> compute stats
  | Some _, Some bk ->
    let key =
      lazy
        (Cached.digest ~tag:"szv1"
           [ Cached.circuit_key c;
             Cached.sp_config_key config;
             bk;
             Cached.vector_key ~before ~after ])
    in
    Eval.Cache.memo ?cache ?stats ~key ~arity:2
      ~to_floats:(fun (d, vx) -> [| d; vx |])
      ~of_floats:(fun a -> (a.(0), a.(1)))
      compute

(* parallel over vectors; per-worker accumulators keep the recording
   lock-free and are merged back (in worker order) after the join, and
   the max-reduction runs in index order, so the measurement and the
   diagnostics are independent of [jobs].  The cache may be shared by
   the workers (it is mutex-guarded): a hit replays the same counters
   the computation would have recorded, so the totals stay independent
   of [jobs] and of the cache state. *)
let worst_delay_spice ?cache ?(obs = Obs.disabled) ~config ~bp_config ?stats
    ~jobs c vectors =
  let vecs = Array.of_list vectors in
  let per_vector =
    Par.Pool.map_stateful ~obs ~jobs ~chunk:1
      ~create:(fun () -> (Eval.Resilience.create (), Obs.shard obs))
      ~merge:(fun (w, o) ->
        (match stats with
         | Some s -> Eval.Resilience.merge_into ~into:s w
         | None -> ());
        Obs.merge_shard ~into:obs o)
      (Array.length vecs)
      (fun (wstats, wobs) i ->
        spice_vector ?cache ~obs:wobs ~config ~bp_config ~stats:wstats c
          vecs.(i))
  in
  Array.fold_left
    (fun (dmax, vxmax) (d, vx) -> (Float.max dmax d, Float.max vxmax vx))
    (0.0, 0.0) per_vector

let sleep_of c ~body_effect ~wl =
  ignore body_effect;
  let tech = Netlist.Circuit.tech c in
  Device.Sleep.make tech.Device.Tech.sleep_nmos ~wl
    ~vdd:tech.Device.Tech.vdd

let worst_delay_ctx (ctx : Eval.Ctx.t) c ~sleep vectors =
  let body_effect = ctx.Eval.Ctx.body_effect in
  let cache = ctx.Eval.Ctx.cache in
  let obs = ctx.Eval.Ctx.obs in
  match ctx.Eval.Ctx.engine with
  | Eval.Breakpoint ->
    let config = { BP.default_config with BP.sleep; body_effect } in
    worst_delay_bp ?cache ~obs ~config c vectors
  | Eval.Spice_level ->
    (* size the transient horizon from the fast estimate so slow (small
       sleep device) cases are not cut off *)
    let bp_config = { BP.default_config with BP.sleep; body_effect } in
    let estimate, _ =
      worst_delay_bp ?cache ~obs ~config:bp_config c vectors
    in
    let t_stop =
      Float.max Spice_ref.default_config.Spice_ref.t_stop
        (Spice_ref.default_config.Spice_ref.t_start +. (3.0 *. estimate))
    in
    let config =
      { Spice_ref.default_config with
        Spice_ref.sleep;
        t_stop;
        policy = ctx.Eval.Ctx.policy;
        fast = ctx.Eval.Ctx.fast }
    in
    worst_delay_spice ?cache ~obs ~config ~bp_config
      ?stats:ctx.Eval.Ctx.stats ~jobs:ctx.Eval.Ctx.jobs c vectors

let cmos_delay ?ctx c ~vectors =
  if vectors = [] then invalid_arg "Sizing: empty vector list";
  let ctx = resolve ?ctx () in
  fst (worst_delay_ctx ctx c ~sleep:BP.Cmos vectors)

let measurement_at (ctx : Eval.Ctx.t) c ~base ~wl vectors =
  let sleep =
    BP.Sleep_fet (sleep_of c ~body_effect:ctx.Eval.Ctx.body_effect ~wl)
  in
  let d, vx = worst_delay_ctx ctx c ~sleep vectors in
  { wl;
    cmos_delay = base;
    mtcmos_delay = d;
    degradation = (d -. base) /. base;
    vx_peak = vx }

let delay_at ?ctx c ~vectors ~wl =
  if vectors = [] then invalid_arg "Sizing: empty vector list";
  let ctx = resolve ?ctx () in
  let base = fst (worst_delay_ctx ctx c ~sleep:BP.Cmos vectors) in
  measurement_at ctx c ~base ~wl vectors

let sweep ?ctx c ~vectors ~wls =
  if vectors = [] then invalid_arg "Sizing: empty vector list";
  let ctx = resolve ?ctx () in
  Obs.Span.with_ ctx.Eval.Ctx.obs "sizing.sweep" @@ fun () ->
  (* the shared CMOS baseline is measured once, sequentially *)
  let base =
    fst
      (worst_delay_ctx
         { ctx with Eval.Ctx.jobs = 1 }
         c ~sleep:BP.Cmos vectors)
  in
  (* parallelise across W/L points (each is an independent worst-delay
     measurement); inner per-vector loops stay sequential so one sweep
     spawns at most [jobs] domains.  Results land in index order, so
     the list is identical whatever [jobs] is. *)
  let wl_arr = Array.of_list wls in
  let ms =
    Par.Pool.map_stateful ~obs:ctx.Eval.Ctx.obs ~jobs:ctx.Eval.Ctx.jobs
      ~chunk:1
      ~create:(fun () -> Eval.Ctx.worker ctx)
      ~merge:(fun w -> Eval.Ctx.merge_worker ~into:ctx w)
      (Array.length wl_arr)
      (fun wctx i -> measurement_at wctx c ~base ~wl:wl_arr.(i) vectors)
  in
  Array.to_list ms

let size_for_degradation ?ctx ?(wl_lo = 0.5) ?(wl_hi = 4096.0)
    ?(tolerance = 0.01) c ~vectors ~target =
  if vectors = [] then invalid_arg "Sizing: empty vector list";
  let ctx = resolve ?ctx () in
  let base = fst (worst_delay_ctx ctx c ~sleep:BP.Cmos vectors) in
  let degradation wl =
    let sleep =
      BP.Sleep_fet (sleep_of c ~body_effect:ctx.Eval.Ctx.body_effect ~wl)
    in
    let d, _ = worst_delay_ctx ctx c ~sleep vectors in
    (d -. base) /. base
  in
  if degradation wl_hi > target then raise Not_found;
  (* bisection on log scale: degradation decreases with wl *)
  let rec refine lo hi iter =
    if iter > 60 || hi /. lo <= 1.0 +. tolerance then hi
    else
      let mid = sqrt (lo *. hi) in
      if degradation mid <= target then refine lo mid (iter + 1)
      else refine mid hi (iter + 1)
  in
  if degradation wl_lo <= target then wl_lo else refine wl_lo wl_hi 0

let pp_measurement fmt m =
  Format.fprintf fmt
    "W/L=%7.1f  cmos=%s  mtcmos=%s  degradation=%5.1f%%  vx_peak=%s"
    m.wl
    (Phys.Units.to_eng_string ~unit:"s" m.cmos_delay)
    (Phys.Units.to_eng_string ~unit:"s" m.mtcmos_delay)
    (100.0 *. m.degradation)
    (Phys.Units.to_eng_string ~unit:"V" m.vx_peak)
