module BP = Breakpoint_sim

type objective =
  | Max_degradation
  | Max_delay
  | Max_vx
  | Max_current

type outcome = {
  pair : Vectors.pair;
  score : float;
  evaluations : int;
}

let resolve ?ctx () = Option.value ctx ~default:Eval.Ctx.default

let vector_label (before, after) =
  let fmt g =
    String.concat "," (List.map (fun (_, v) -> string_of_int v) g)
  in
  Printf.sprintf "(%s)->(%s)" (fmt before) (fmt after)

let score_bp ?cache ?obs ~body_effect c ~sleep objective (before, after) =
  let config = { BP.default_config with BP.sleep; body_effect } in
  let d_mt, vx, i_peak =
    Cached.bp_metrics ?cache ?obs ~config c ~before ~after
  in
  match objective with
  | Max_vx -> vx
  | Max_current -> i_peak
  | Max_delay -> Option.value d_mt ~default:0.0
  | Max_degradation ->
    (match d_mt with
     | None -> 0.0
     | Some d_mt ->
       let cmos = { BP.default_config with BP.body_effect } in
       let d0, _, _ =
         Cached.bp_metrics ?cache ?obs ~config:cmos c ~before ~after
       in
       (match d0 with
        | Some d0 when d0 > 0.0 -> (d_mt -. d0) /. d0
        | Some _ | None -> 0.0))

(* one cached transistor-level scoring run, reduced to the scalars every
   objective needs: (converged, critical delay if any output switched,
   vx peak, peak sleep current).  A failing transient is part of the
   cacheable outcome — the entry carries the Scored_zero skip for
   replay, so warm stats match cold ones. *)
let sp_scored ?cache ?obs ?stats ~config ~label c (before, after) =
  let compute stats =
    match Spice_ref.run_ints_r ~config ?obs c ~before ~after with
    | Error f ->
      Eval.Resilience.record_skip ?stats ~kind:Eval.Resilience.Scored_zero
        ~label f;
      (false, None, 0.0, 0.0)
    | Ok r ->
      Eval.Resilience.record_success ?stats (Spice_ref.telemetry r);
      ( true,
        Option.map snd (Spice_ref.critical_delay r),
        Spice_ref.vx_peak r,
        Spice_ref.peak_sleep_current r )
  in
  match cache with
  | None -> compute stats
  | Some _ ->
    let key =
      lazy
        (Cached.digest ~tag:"score1"
           [ Cached.circuit_key c;
             Cached.sp_config_key config;
             Cached.vector_key ~before ~after ])
    in
    Eval.Cache.memo ?cache ?stats ~key ~arity:5
      ~to_floats:(fun (ok, d, vx, i) ->
        [| (if ok then 1.0 else 0.0);
           (match d with None -> 0.0 | Some _ -> 1.0);
           (match d with None -> 0.0 | Some d -> d);
           vx;
           i |])
      ~of_floats:(fun a ->
        ( a.(0) <> 0.0,
          (if a.(1) = 0.0 then None else Some a.(2)),
          a.(3),
          a.(4) ))
      compute

(* transistor-level oracle: a transition whose transient fails even
   after recovery scores 0 (it can never be selected as "worst") and is
   recorded as a [Scored_zero] skip — distinguishable in [?stats] from
   an honest nothing-switches zero, which records a plain success — so
   a hunt over thousands of vectors survives individual failures
   without silently conflating the two cases *)
let score_spice ?cache ?(obs = Obs.disabled) ?stats ~policy ~fast ~jobs c
    ~sleep objective pair =
  let label = vector_label pair in
  let run_one ?cache obs wstats sl =
    let config =
      { Spice_ref.default_config with Spice_ref.sleep = sl; policy; fast }
    in
    sp_scored ?cache ~obs ?stats:wstats ~config ~label c pair
  in
  match objective with
  | Max_degradation ->
    (* both runs are always evaluated (the MTCMOS transient and the
       ideal-ground baseline), so the score and the recorded
       diagnostics are identical whatever [jobs] is; at jobs >= 2 the
       two transients run on separate domains *)
    let sleeps = [| sleep; BP.Cmos |] in
    let runs =
      Par.Pool.map_stateful ~obs ~jobs:(min jobs 2) ~chunk:1
        ~create:(fun () -> (Eval.Resilience.create (), Obs.shard obs))
        ~merge:(fun (w, o) ->
          (match stats with
           | Some s -> Eval.Resilience.merge_into ~into:s w
           | None -> ());
          Obs.merge_shard ~into:obs o)
        2
        (fun (wstats, wobs) i ->
          run_one ?cache wobs (Some wstats) sleeps.(i))
    in
    (match (runs.(0), runs.(1)) with
     | (true, d_mt, _, _), (true, d0, _, _) ->
       (match (d_mt, d0) with
        | Some d_mt, Some d0 when d0 > 0.0 -> (d_mt -. d0) /. d0
        | _ -> 0.0)
     | _ -> 0.0)
  | Max_vx | Max_current | Max_delay ->
    (match run_one ?cache obs stats sleep with
     | false, _, _, _ -> 0.0
     | true, d, vx, i_sleep ->
       (match objective with
        | Max_vx -> vx
        | Max_current -> i_sleep
        | Max_delay | Max_degradation -> Option.value d ~default:0.0))

let score_ctx (ctx : Eval.Ctx.t) c ~sleep objective pair =
  let cache = ctx.Eval.Ctx.cache in
  let obs = ctx.Eval.Ctx.obs in
  match ctx.Eval.Ctx.engine with
  | Eval.Breakpoint ->
    score_bp ?cache ~obs ~body_effect:ctx.Eval.Ctx.body_effect c ~sleep
      objective pair
  | Eval.Spice_level ->
    score_spice ?cache ~obs ?stats:ctx.Eval.Ctx.stats
      ~policy:ctx.Eval.Ctx.policy ~fast:ctx.Eval.Ctx.fast
      ~jobs:ctx.Eval.Ctx.jobs c ~sleep objective pair

let score ?ctx c ~sleep objective pair =
  let ctx = resolve ?ctx () in
  score_ctx ctx c ~sleep objective pair

let score_all ?ctx c ~sleep objective pairs =
  let ctx = resolve ?ctx () in
  Obs.Span.with_ ctx.Eval.Ctx.obs "search.score_all" @@ fun () ->
  let arr = Array.of_list pairs in
  Par.Pool.map_stateful ~obs:ctx.Eval.Ctx.obs ~jobs:ctx.Eval.Ctx.jobs
    ~create:(fun () -> Eval.Ctx.worker ctx)
    ~merge:(fun w -> Eval.Ctx.merge_worker ~into:ctx w)
    (Array.length arr)
    (fun wctx i -> score_ctx wctx c ~sleep objective arr.(i))

(* enumerate the single-bit-flip neighbours of a packed assignment *)
let flip_bit groups ~bit =
  let rec go acc bit = function
    | [] -> List.rev acc
    | (w, v) :: rest ->
      if bit < w then List.rev_append acc (((w, v lxor (1 lsl bit)) :: rest))
      else go ((w, v) :: acc) (bit - w) rest
  in
  go [] bit groups

let total_bits widths = List.fold_left ( + ) 0 widths

(* One hill-climb restart with its own RNG stream, derived from
   [(seed, restart)].  Seeding per restart (rather than sharing one
   stream across restarts, as earlier versions did) is what lets
   restarts run on separate domains while the hunt stays reproducible:
   the candidate sequence of restart [r] no longer depends on how many
   draws restarts [0..r-1] consumed, so the outcome is a pure function
   of [seed] alone — identical for every [jobs]. *)
let climb_restart ~seed ~restart ~max_iters ~widths ~bits ~eval =
  let st = Random.State.make [| seed; restart |] in
  let random_groups () =
    List.map (fun w -> (w, Random.State.int st (1 lsl w))) widths
  in
  let best = ref None in
  let consider pair s =
    match !best with
    | Some (_, s0) when s0 >= s -> ()
    | Some _ | None -> best := Some (pair, s)
  in
  let current = ref (random_groups (), random_groups ()) in
  let current_score = ref (eval !current) in
  consider !current !current_score;
  let stuck = ref false in
  let iters = ref 0 in
  while (not !stuck) && !iters < max_iters do
    (* first-improvement over a random permutation of the 2*bits moves *)
    let moves = Array.init (2 * bits) (fun i -> i) in
    for i = Array.length moves - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let t = moves.(i) in
      moves.(i) <- moves.(j);
      moves.(j) <- t
    done;
    let improved = ref false in
    let k = ref 0 in
    while (not !improved) && !k < Array.length moves && !iters < max_iters
    do
      let m = moves.(!k) in
      incr k;
      incr iters;
      let before, after = !current in
      let candidate =
        if m < bits then (flip_bit before ~bit:m, after)
        else (before, flip_bit after ~bit:(m - bits))
      in
      let s = eval candidate in
      consider candidate s;
      if s > !current_score then begin
        current := candidate;
        current_score := s;
        improved := true
      end
    done;
    if not !improved then stuck := true
  done;
  !best

let hill_climb ?(seed = 17) ?(restarts = 8) ?(max_iters = 400) ?ctx c ~sleep
    ~widths objective =
  let ctx = resolve ?ctx () in
  Obs.Span.with_ ctx.Eval.Ctx.obs "search.hill_climb" @@ fun () ->
  let bits = total_bits widths in
  (* restarts are the unit of parallelism: each is an independent climb
     (own RNG stream, own evaluation counter, own resilience
     accumulator), and the per-restart bests are reduced in restart
     order — lower restart wins ties — so the outcome is identical for
     every [jobs].  A shared cache changes which evaluations hit, never
     what they return. *)
  let per_restart =
    Par.Pool.map_stateful ~obs:ctx.Eval.Ctx.obs ~jobs:ctx.Eval.Ctx.jobs
      ~chunk:1
      ~create:(fun () -> Eval.Ctx.worker ctx)
      ~merge:(fun w -> Eval.Ctx.merge_worker ~into:ctx w)
      restarts
      (fun wctx r ->
        let evals = ref 0 in
        let eval pair =
          incr evals;
          score_ctx wctx c ~sleep objective pair
        in
        let best =
          climb_restart ~seed ~restart:r ~max_iters ~widths ~bits ~eval
        in
        (best, !evals))
  in
  let best, evaluations =
    Array.fold_left
      (fun (acc, n) (best, evals) ->
        let acc =
          match (acc, best) with
          | Some (_, s0), Some (_, s) when s0 >= s -> acc
          | _, Some _ -> best
          | _, None -> acc
        in
        (acc, n + evals))
      (None, 0) per_restart
  in
  match best with
  | Some (pair, s) -> { pair; score = s; evaluations }
  | None -> assert false

let exhaustive ?ctx c ~sleep ~widths objective =
  let ctx = resolve ?ctx () in
  let pairs = Vectors.enumerate_pairs ~widths in
  let scores = score_all ~ctx c ~sleep objective pairs in
  let best = ref None in
  List.iteri
    (fun i pair ->
      let s = scores.(i) in
      match !best with
      | Some (_, s0) when s0 >= s -> ()
      | Some _ | None -> best := Some (pair, s))
    pairs;
  match !best with
  | Some (pair, s) ->
    { pair; score = s; evaluations = Array.length scores }
  | None -> invalid_arg "Search.exhaustive: empty space"
