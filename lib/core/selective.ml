module C = Netlist.Circuit

type objective = Leakage | Area | Mixed

let objective_of_string = function
  | "leakage" -> Some Leakage
  | "area" -> Some Area
  | "mixed" -> Some Mixed
  | _ -> None

let objective_name = function
  | Leakage -> "leakage"
  | Area -> "area"
  | Mixed -> "mixed"

type result = {
  vt_high : bool array;
  cluster_of_gate : int array;
  sleep_wl : float array;
  members : int array array;
  base_delay : float;
  budget : float;
  arrival : float;
  slack : float;
  leakage : float;
  ungated_leakage : float;
  area : float;
  objective : objective;
  objective_value : float;
  evaluations : int;
  flips_to_low : int;
  reclaimed : int;
  moves : int;
}

let gating ~vt_high ~cluster_of_gate ~sleep_wl =
  { Sta.vt_high; block_of_gate = cluster_of_gate; sleep_wl }

let pulldowns circuit =
  Array.map
    (fun (g : C.gate_inst) ->
      (Netlist.Gate.drive (C.tech circuit) ~strength:g.C.strength g.C.kind)
        .Netlist.Gate.wl_pull_down)
    (C.gates circuit)

let standby_leakage circuit ~vt_high ~cluster_of_gate ~sleep_wl =
  let tech = C.tech circuit in
  let vdd = tech.Device.Tech.vdd in
  let pd = pulldowns circuit in
  let k = Array.length sleep_wl in
  let low_w = Array.make k 0.0 in
  let ungrouped = ref 0.0 in
  Array.iteri
    (fun i w ->
      if vt_high.(i) then
        ungrouped :=
          !ungrouped
          +. Device.Leakage.off_current tech.Device.Tech.sleep_nmos ~wl:w ~vdd
      else
        let c = cluster_of_gate.(i) in
        if c >= 0 then low_w.(c) <- low_w.(c) +. w
        else
          ungrouped :=
            !ungrouped
            +. Device.Leakage.off_current tech.Device.Tech.nmos ~wl:w ~vdd)
    pd;
  let gated = ref 0.0 in
  Array.iteri
    (fun c wl ->
      if low_w.(c) > 0.0 then
        if wl > 0.0 then
          gated :=
            !gated
            +. snd
                 (Device.Leakage.standby_comparison
                    ~low_vt:tech.Device.Tech.nmos
                    ~high_vt:tech.Device.Tech.sleep_nmos
                    ~total_width_wl:low_w.(c) ~sleep_wl:wl ~vdd)
        else
          (* a device-less cluster leaves its low-Vt gates ungated *)
          gated :=
            !gated
            +. Device.Leakage.off_current tech.Device.Tech.nmos ~wl:low_w.(c)
                 ~vdd)
    sleep_wl;
  !gated +. !ungrouped

let sleep_area circuit ~sleep_wl =
  let lmin = (C.tech circuit).Device.Tech.lmin in
  Array.fold_left
    (fun acc wl -> if wl > 0.0 then acc +. (wl *. lmin *. lmin) else acc)
    0.0 sleep_wl

let ungated_leakage circuit =
  let tech = C.tech circuit in
  Device.Leakage.off_current tech.Device.Tech.nmos
    ~wl:(C.total_pulldown_wl circuit) ~vdd:tech.Device.Tech.vdd

let objective_value circuit obj ~leakage ~area =
  match obj with
  | Leakage -> leakage
  | Area -> area
  | Mixed ->
    let tech = C.tech circuit in
    let w = C.total_pulldown_wl circuit in
    let leak_norm =
      Device.Leakage.off_current tech.Device.Tech.sleep_nmos ~wl:w
        ~vdd:tech.Device.Tech.vdd
    in
    let area_norm = w *. tech.Device.Tech.lmin *. tech.Device.Tech.lmin in
    (leakage /. leak_norm) +. (area /. area_norm)

let worst_arrival sta circuit =
  Array.fold_left
    (fun acc n -> Float.max acc (Sta.arrival sta n))
    0.0 (C.outputs circuit)

let arrival ?(ctx = Eval.Ctx.default) circuit ~vt_high ~cluster_of_gate
    ~sleep_wl =
  let body_effect = ctx.Eval.Ctx.body_effect in
  let compute _ =
    let g = gating ~vt_high ~cluster_of_gate ~sleep_wl in
    worst_arrival (Sta.analyze ~body_effect ~gating:g circuit) circuit
  in
  match ctx.Eval.Ctx.cache with
  | None -> compute None
  | Some _ ->
    Eval.Cache.memo ?cache:ctx.Eval.Ctx.cache
      ~key:
        (lazy
          (Cached.selective_key circuit ~body_effect ~vt_high
             ~block_of_gate:cluster_of_gate ~sleep_wl))
      ~arity:1
      ~to_floats:(fun a -> [| a |])
      ~of_floats:(fun a -> a.(0))
      compute

(* Geometric bisection for the smallest feasible device: [hi] is known
   feasible, [lo] is tried first; invariantly returns a feasible size.
   Same 1 % tolerance and iteration cap as Hierarchy / Sizing. *)
let shrink ~feasible_at ~lo ~hi =
  if feasible_at lo then lo
  else
    let rec refine l h iter =
      if iter > 60 || h /. l <= 1.01 then h
      else
        let mid = sqrt (l *. h) in
        if feasible_at mid then refine l mid (iter + 1)
        else refine mid h (iter + 1)
    in
    refine lo hi 0

let size_clusters_with ~eval ~wl_lo ~wl_hi circuit ~budget ~vt_high
    ~cluster_of_gate ~n_clusters =
  let n = C.num_gates circuit in
  let active = Array.make n_clusters false in
  for i = 0 to n - 1 do
    if (not vt_high.(i)) && cluster_of_gate.(i) >= 0 then
      active.(cluster_of_gate.(i)) <- true
  done;
  let wls =
    Array.init n_clusters (fun c -> if active.(c) then wl_hi else 0.0)
  in
  let feasible () =
    eval ~vt_high ~cluster_of_gate ~sleep_wl:wls <= budget
  in
  if not (feasible ()) then raise Not_found;
  let set_all w =
    Array.iteri (fun c a -> if a then wls.(c) <- w) active
  in
  let uniform =
    shrink ~lo:wl_lo ~hi:wl_hi ~feasible_at:(fun w ->
        set_all w;
        feasible ())
  in
  set_all uniform;
  for _pass = 1 to 2 do
    for c = 0 to n_clusters - 1 do
      if active.(c) then begin
        let hi = wls.(c) in
        let w =
          shrink ~lo:wl_lo ~hi ~feasible_at:(fun w ->
              wls.(c) <- w;
              feasible ())
        in
        wls.(c) <- w
      end
    done
  done;
  wls

let size_clusters ?(ctx = Eval.Ctx.default) ?(wl_lo = 0.5) ?(wl_hi = 4096.0)
    circuit ~budget ~vt_high ~cluster_of_gate ~n_clusters =
  let eval ~vt_high ~cluster_of_gate ~sleep_wl =
    arrival ~ctx circuit ~vt_high ~cluster_of_gate ~sleep_wl
  in
  size_clusters_with ~eval ~wl_lo ~wl_hi circuit ~budget ~vt_high
    ~cluster_of_gate ~n_clusters

(* Primary outputs reachable downstream of every gate — the
   fanout-endpoint cost that orders phase-A ties (cells feeding more
   endpoints buy more slack per swap).  Bitset DP over the reverse DAG. *)
let endpoint_counts circuit =
  let outs = C.outputs circuit in
  let n_out = Array.length outs in
  let words = (n_out + 62) / 63 in
  let sets = Array.make_matrix (C.num_nets circuit) words 0 in
  Array.iteri
    (fun j net ->
      sets.(net).(j / 63) <- sets.(net).(j / 63) lor (1 lsl (j mod 63)))
    outs;
  let gates = C.gates circuit in
  for gi = Array.length gates - 1 downto 0 do
    let g = gates.(gi) in
    let out_set = sets.(g.C.output) in
    Array.iter
      (fun inp ->
        let s = sets.(inp) in
        for w = 0 to words - 1 do
          s.(w) <- s.(w) lor out_set.(w)
        done)
      g.C.inputs
  done;
  let popcount x =
    let rec go x acc = if x = 0 then acc else go (x lsr 1) (acc + (x land 1)) in
    go x 0
  in
  Array.map
    (fun (g : C.gate_inst) ->
      Array.fold_left (fun acc w -> acc + popcount w) 0 sets.(g.C.output))
    gates

let optimize ?(ctx = Eval.Ctx.default) ?(objective = Leakage) ?(clusters = 4)
    ?(max_passes = 2) circuit ~delay_budget =
  if delay_budget < 0.0 then
    invalid_arg "Selective.optimize: delay_budget < 0";
  if clusters < 1 then invalid_arg "Selective.optimize: clusters < 1";
  if max_passes < 0 then invalid_arg "Selective.optimize: max_passes < 0";
  let n = C.num_gates circuit in
  if n = 0 then invalid_arg "Selective.optimize: circuit has no gates";
  let obs = ctx.Eval.Ctx.obs in
  Obs.Span.with_ obs "selective.optimize" @@ fun () ->
  let body_effect = ctx.Eval.Ctx.body_effect in
  let pd = pulldowns circuit in
  let base_sta = Sta.analyze ~body_effect circuit in
  let base = worst_arrival base_sta circuit in
  let budget = (1.0 +. delay_budget) *. base in
  (* seed clustering: level bands, empty bands compacted away *)
  let pops = Hierarchy.populations circuit ~blocks:clusters in
  let remap = Array.make clusters (-1) in
  let k = ref 0 in
  Array.iteri
    (fun b p ->
      if p > 0 then begin
        remap.(b) <- !k;
        incr k
      end)
    pops;
  let k = !k in
  let band = Hierarchy.by_level circuit ~blocks:clusters in
  let cluster_of = Array.init n (fun i -> remap.(band i)) in
  let vt = Array.make n true in
  let evals = Atomic.make 0 in
  let eval ~vt_high ~cluster_of_gate ~sleep_wl =
    Atomic.incr evals;
    arrival ~ctx circuit ~vt_high ~cluster_of_gate ~sleep_wl
  in
  let wl_lo = 0.5 and wl_hi = 4096.0 in
  let wls_hi vt =
    let w = Array.make k 0.0 in
    for i = 0 to n - 1 do
      if not vt.(i) then w.(cluster_of.(i)) <- wl_hi
    done;
    w
  in
  (* phase A: swap worst-slack-path cells to low-Vt until the budget is
     met (devices held wide open; sizing comes after feasibility) *)
  let endpoints = endpoint_counts circuit in
  let flips = ref 0 in
  let rec phase_a iter =
    if iter > n + 1 then raise Not_found;
    Atomic.incr evals;
    let g = gating ~vt_high:vt ~cluster_of_gate:cluster_of
        ~sleep_wl:(wls_hi vt)
    in
    let sta = Sta.analyze ~body_effect ~gating:g circuit in
    let arr = worst_arrival sta circuit in
    if arr > budget then begin
      let path = Sta.critical_path sta in
      let cands = List.filter (fun gid -> vt.(gid)) path.Sta.through in
      let cands =
        if cands <> [] then cands
        else
          List.filter
            (fun gid -> vt.(gid))
            (List.init n (fun i -> i))
      in
      if cands = [] then raise Not_found;
      let cands = Array.of_list cands in
      let scores =
        Par.Pool.map ~jobs:ctx.Eval.Ctx.jobs (Array.length cands) (fun i ->
            let vt' = Array.copy vt in
            vt'.(cands.(i)) <- false;
            eval ~vt_high:vt' ~cluster_of_gate:cluster_of
              ~sleep_wl:(wls_hi vt'))
      in
      let best = ref 0 in
      for i = 1 to Array.length cands - 1 do
        if
          scores.(i) < scores.(!best)
          || (scores.(i) = scores.(!best)
              && endpoints.(cands.(i)) > endpoints.(cands.(!best)))
        then best := i
      done;
      vt.(cands.(!best)) <- false;
      incr flips;
      phase_a (iter + 1)
    end
  in
  phase_a 0;
  let size vt =
    size_clusters_with ~eval ~wl_lo ~wl_hi circuit ~budget ~vt_high:vt
      ~cluster_of_gate:cluster_of ~n_clusters:k
  in
  let measure vt wls =
    let leakage =
      standby_leakage circuit ~vt_high:vt ~cluster_of_gate:cluster_of
        ~sleep_wl:wls
    in
    let area = sleep_area circuit ~sleep_wl:wls in
    (leakage, area, objective_value circuit objective ~leakage ~area)
  in
  let improves cur cand = cand < cur *. (1.0 -. 1e-9) in
  let wls = ref (size vt) in
  let obj = ref (let _, _, o = measure vt !wls in o) in
  (* re-size only the clusters a tentative change touches; None when the
     change cannot meet the budget even with those devices wide open *)
  let resize_subset vt cs wls0 =
    let wls' = Array.copy wls0 in
    let has_low c =
      let rec go i =
        i < n && (((not vt.(i)) && cluster_of.(i) = c) || go (i + 1))
      in
      go 0
    in
    List.iter
      (fun c -> wls'.(c) <- (if has_low c then wl_hi else 0.0))
      cs;
    if eval ~vt_high:vt ~cluster_of_gate:cluster_of ~sleep_wl:wls' > budget
    then None
    else begin
      List.iter
        (fun c ->
          if wls'.(c) > 0.0 then
            wls'.(c) <-
              shrink ~lo:wl_lo ~hi:wls'.(c) ~feasible_at:(fun w ->
                  wls'.(c) <- w;
                  eval ~vt_high:vt ~cluster_of_gate:cluster_of
                    ~sleep_wl:wls'
                  <= budget))
        cs;
      Some wls'
    end
  in
  let reclaimed = ref 0 in
  let moved = ref 0 in
  let pass = ref 0 in
  let changed = ref true in
  while !changed && !pass < max_passes do
    incr pass;
    changed := false;
    (* phase B: Vt toggles that pay — widest pull-downs first (largest
       leakage stake), gate id breaking ties.  A low cell with slack can
       be reclaimed to high-Vt (its off-current replaces its share of
       device current); a high cell can be swapped back to low when its
       off-current costs more than the device growth it causes.  Both
       directions re-price only the touched cluster. *)
    let order =
      List.sort
        (fun a b ->
          match compare pd.(b) pd.(a) with 0 -> compare a b | c -> c)
        (List.init n (fun i -> i))
    in
    List.iter
      (fun g ->
        let was = vt.(g) in
        vt.(g) <- not was;
        match resize_subset vt [ cluster_of.(g) ] !wls with
        | Some wls' ->
          let _, _, o' = measure vt wls' in
          if improves !obj o' then begin
            wls := wls';
            obj := o';
            if was then incr flips else incr reclaimed;
            changed := true
          end
          else vt.(g) <- was
        | None -> vt.(g) <- was)
      order;
    (* phase C: cluster refinement — move a low-Vt gate to another
       device when that shrinks the objective within the budget *)
    if k > 1 then
      for g = 0 to n - 1 do
        if not vt.(g) then
          for c' = 0 to k - 1 do
            let c = cluster_of.(g) in
            if c' <> c then begin
              cluster_of.(g) <- c';
              let cs = if c < c' then [ c; c' ] else [ c'; c ] in
              match resize_subset vt cs !wls with
              | Some wls' ->
                let _, _, o' = measure vt wls' in
                if improves !obj o' then begin
                  wls := wls';
                  obj := o';
                  incr moved;
                  changed := true
                end
                else cluster_of.(g) <- c
              | None -> cluster_of.(g) <- c
            end
          done
      done
  done;
  (* canonical final sizing (what the differential oracle prices), then
     compact away clusters that lost every member *)
  wls := size vt;
  let count = Array.make k 0 in
  Array.iter (fun c -> count.(c) <- count.(c) + 1) cluster_of;
  let remap2 = Array.make k (-1) in
  let k' = ref 0 in
  Array.iteri
    (fun c m ->
      if m > 0 then begin
        remap2.(c) <- !k';
        incr k'
      end)
    count;
  let k' = !k' in
  let cluster_final = Array.map (fun c -> remap2.(c)) cluster_of in
  let wls_final = Array.make k' 0.0 in
  Array.iteri (fun c w -> if remap2.(c) >= 0 then wls_final.(remap2.(c)) <- w)
    !wls;
  let members =
    Array.init k' (fun c ->
        let l = ref [] in
        for i = n - 1 downto 0 do
          if cluster_final.(i) = c then l := i :: !l
        done;
        Array.of_list !l)
  in
  let final_arrival =
    eval ~vt_high:vt ~cluster_of_gate:cluster_final ~sleep_wl:wls_final
  in
  let leakage, area, obj_value =
    let leakage =
      standby_leakage circuit ~vt_high:vt ~cluster_of_gate:cluster_final
        ~sleep_wl:wls_final
    in
    let area = sleep_area circuit ~sleep_wl:wls_final in
    (leakage, area, objective_value circuit objective ~leakage ~area)
  in
  Obs.incr ~by:(Atomic.get evals) obs "selective.evaluations";
  Obs.incr ~by:!flips obs "selective.flips";
  Obs.incr ~by:!reclaimed obs "selective.reclaims";
  Obs.incr ~by:!moved obs "selective.moves";
  { vt_high = vt;
    cluster_of_gate = cluster_final;
    sleep_wl = wls_final;
    members;
    base_delay = base;
    budget;
    arrival = final_arrival;
    slack = budget -. final_arrival;
    leakage;
    ungated_leakage = ungated_leakage circuit;
    area;
    objective;
    objective_value = obj_value;
    evaluations = Atomic.get evals;
    flips_to_low = !flips;
    reclaimed = !reclaimed;
    moves = !moved }

let bounce_peak ?(ctx = Eval.Ctx.default) circuit r ~vectors =
  let tech = C.tech circuit in
  let k' = Array.length r.sleep_wl in
  let sleeps =
    Array.append
      (Array.map
         (fun wl ->
           if wl > 0.0 then
             Breakpoint_sim.Sleep_fet
               (Device.Sleep.make tech.Device.Tech.sleep_nmos ~wl
                  ~vdd:tech.Device.Tech.vdd)
           else Breakpoint_sim.Cmos)
         r.sleep_wl)
      [| Breakpoint_sim.Cmos |]
  in
  let block_of_gate gid =
    if r.vt_high.(gid) then k' else r.cluster_of_gate.(gid)
  in
  let config =
    { Breakpoint_sim.default_config with
      Breakpoint_sim.body_effect = ctx.Eval.Ctx.body_effect;
      partition = Some { Breakpoint_sim.block_of_gate; sleeps } }
  in
  List.fold_left
    (fun acc (before, after) ->
      let r =
        Breakpoint_sim.simulate_ints ~config ~obs:ctx.Eval.Ctx.obs circuit
          ~before ~after
      in
      Float.max acc (Breakpoint_sim.vx_peak r))
    0.0 vectors

let pp_result ?vx_peak ppf r =
  let n = Array.length r.vt_high in
  let low = Array.fold_left (fun a h -> if h then a else a + 1) 0 r.vt_high in
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "base delay     %.6g ps@," (r.base_delay *. 1e12);
  Format.fprintf ppf "budget         %.6g ps@," (r.budget *. 1e12);
  Format.fprintf ppf "arrival        %.6g ps (slack %.6g ps)@,"
    (r.arrival *. 1e12)
    (r.slack *. 1e12);
  Format.fprintf ppf "vt classes     %d low / %d high of %d gates@," low
    (n - low) n;
  Format.fprintf ppf "clusters       %d@," (Array.length r.sleep_wl);
  Array.iteri
    (fun c wl ->
      let m = r.members.(c) in
      let lowc =
        Array.fold_left
          (fun a g -> if r.vt_high.(g) then a else a + 1)
          0 m
      in
      if wl > 0.0 then
        Format.fprintf ppf "  %d: %d gates (%d low), sleep W/L %.4g@," c
          (Array.length m) lowc wl
      else
        Format.fprintf ppf "  %d: %d gates (%d low), no sleep device@," c
          (Array.length m) lowc)
    r.sleep_wl;
  Format.fprintf ppf "leakage        %.6g A (ungated %.6g A, %.4gx)@,"
    r.leakage r.ungated_leakage
    (r.ungated_leakage /. r.leakage);
  Format.fprintf ppf "sleep area     %.6g um^2@," (r.area *. 1e12);
  Format.fprintf ppf "objective      %s = %.6g@,"
    (objective_name r.objective)
    r.objective_value;
  (match vx_peak with
   | None -> ()
   | Some vx -> Format.fprintf ppf "vx peak        %.6g V@," vx);
  Format.fprintf ppf "evaluations    %d (flips %d, reclaims %d, moves %d)"
    r.evaluations r.flips_to_low r.reclaimed r.moves;
  Format.fprintf ppf "@]"
