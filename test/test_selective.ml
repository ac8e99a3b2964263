(* Selective-MTCMOS co-optimizer: invariants, determinism, the
   degenerate Hierarchy edges it must absorb, and a differential oracle
   that checks the greedy answer against exhaustive Vt enumeration. *)

module Sel = Mtcmos.Selective
module Sta = Mtcmos.Sta
module C = Netlist.Circuit

let tech = Fixtures.tech

(* worst primary-output arrival under a fresh, independent STA — never
   the optimizer's own bookkeeping *)
let reverify circuit (r : Sel.result) =
  let g =
    Sel.gating ~vt_high:r.Sel.vt_high ~cluster_of_gate:r.Sel.cluster_of_gate
      ~sleep_wl:r.Sel.sleep_wl
  in
  let t = Sta.analyze ~gating:g circuit in
  Array.fold_left
    (fun acc n -> Float.max acc (Sta.arrival t n))
    0.0 (C.outputs circuit)

let check_result circuit (r : Sel.result) =
  let arr = reverify circuit r in
  Alcotest.(check bool)
    (Printf.sprintf "independent STA meets budget (%.6g <= %.6g)" arr
       r.Sel.budget)
    true (arr <= r.Sel.budget);
  Alcotest.(check (float 0.0)) "recorded arrival matches fresh STA" arr
    r.Sel.arrival;
  Alcotest.(check (float 0.0)) "slack is budget - arrival"
    (r.Sel.budget -. r.Sel.arrival) r.Sel.slack;
  Alcotest.(check bool) "leakage <= ungated baseline" true
    (r.Sel.leakage <= r.Sel.ungated_leakage);
  (* compacted clustering: indices in range, no empty cluster, members
     partition the gate set *)
  let k = Array.length r.Sel.sleep_wl in
  Alcotest.(check int) "members per cluster" k (Array.length r.Sel.members);
  Array.iter
    (fun c ->
      Alcotest.(check bool) "cluster index in compacted range" true
        (c >= 0 && c < k))
    r.Sel.cluster_of_gate;
  Array.iteri
    (fun c m ->
      Alcotest.(check bool)
        (Printf.sprintf "cluster %d not empty" c)
        true
        (Array.length m > 0);
      Array.iter
        (fun gid ->
          Alcotest.(check int) "member agrees with cluster_of_gate" c
            r.Sel.cluster_of_gate.(gid))
        m)
    r.Sel.members;
  Alcotest.(check int) "members cover every gate" (C.num_gates circuit)
    (Array.fold_left (fun a m -> a + Array.length m) 0 r.Sel.members)

(* ---- invariants on the bench circuits ----------------------------- *)

let test_adder8_budgets () =
  let c = Fixtures.adder8 () in
  List.iter
    (fun budget ->
      let r = Sel.optimize c ~delay_budget:budget in
      check_result c r;
      Alcotest.(check bool) "some gates went low-Vt" true
        (Array.exists not r.Sel.vt_high))
    [ 0.05; 0.1; 0.2 ]

let test_objectives () =
  let c = Fixtures.adder_circuit 4 in
  let leak = Sel.optimize ~objective:Sel.Leakage c ~delay_budget:0.1 in
  let area = Sel.optimize ~objective:Sel.Area c ~delay_budget:0.1 in
  let mixed = Sel.optimize ~objective:Sel.Mixed c ~delay_budget:0.1 in
  List.iter (check_result c) [ leak; area; mixed ];
  Alcotest.(check (float 0.0)) "leakage objective value is the leakage"
    leak.Sel.leakage leak.Sel.objective_value;
  Alcotest.(check (float 0.0)) "area objective value is the area"
    area.Sel.area area.Sel.objective_value;
  Alcotest.(check (float 0.0)) "mixed objective value matches the formula"
    (Sel.objective_value c Sel.Mixed ~leakage:mixed.Sel.leakage
       ~area:mixed.Sel.area)
    mixed.Sel.objective_value

let test_bounce_check () =
  let c = Fixtures.adder_circuit 4 in
  let r = Sel.optimize c ~delay_budget:0.1 in
  check_result c r;
  let vx = Sel.bounce_peak c r ~vectors:[ Fixtures.low_high [ 4; 4 ] ] in
  Alcotest.(check bool) "bounce peak positive and below vdd" true
    (vx > 0.0 && vx < tech.Device.Tech.vdd)

let test_infeasible_raises () =
  let c = Fixtures.chain6 () in
  let n = C.num_gates c in
  (* a starved 0.5 W/L device cannot carry the whole chain at a tight
     budget: sizing must refuse rather than return an infeasible size *)
  let base =
    Sel.arrival c ~vt_high:(Array.make n false)
      ~cluster_of_gate:(Array.make n 0) ~sleep_wl:[| 0.0 |]
  in
  Alcotest.check_raises "capped device cannot meet a tight budget" Not_found
    (fun () ->
      ignore
        (Sel.size_clusters ~wl_hi:0.5 c ~budget:(1.0001 *. base)
           ~vt_high:(Array.make n false) ~cluster_of_gate:(Array.make n 0)
           ~n_clusters:1));
  Alcotest.check_raises "negative budget rejected"
    (Invalid_argument "Selective.optimize: delay_budget < 0") (fun () ->
      ignore (Sel.optimize c ~delay_budget:(-0.1)));
  Alcotest.check_raises "zero clusters rejected"
    (Invalid_argument "Selective.optimize: clusters < 1") (fun () ->
      ignore (Sel.optimize ~clusters:0 c ~delay_budget:0.1))

let test_validate_gating () =
  let c = Fixtures.chain6 () in
  let n = C.num_gates c in
  Alcotest.check_raises "short vt array rejected"
    (Invalid_argument "Sta.analyze: gating arrays must cover every gate")
    (fun () ->
      ignore
        (Sta.analyze
           ~gating:
             (Sel.gating ~vt_high:[| true |] ~cluster_of_gate:[| 0 |]
                ~sleep_wl:[| 1.0 |])
           c));
  Alcotest.check_raises "block out of range rejected"
    (Invalid_argument "Sta.analyze: gating block out of range")
    (fun () ->
      ignore
        (Sta.analyze
           ~gating:
             (Sel.gating ~vt_high:(Array.make n false)
                ~cluster_of_gate:(Array.make n 7) ~sleep_wl:[| 1.0 |])
           c))

let test_objective_names () =
  List.iter
    (fun o ->
      Alcotest.(check bool) "objective name roundtrips" true
        (Sel.objective_of_string (Sel.objective_name o) = Some o))
    [ Sel.Leakage; Sel.Area; Sel.Mixed ];
  Alcotest.(check bool) "unknown objective rejected" true
    (Sel.objective_of_string "speed" = None)

(* ---- Hierarchy degenerate edges ----------------------------------- *)

let test_hierarchy_empty_bands () =
  (* 3 levels, 8 bands: pigeonhole forces empty bands; the mapping must
     stay total and in-range and populations must expose the holes *)
  let c = Fixtures.chain_circuit 3 in
  let blocks = 8 in
  let band = Mtcmos.Hierarchy.by_level c ~blocks in
  Array.iter
    (fun (g : C.gate_inst) ->
      let b = band g.C.id in
      Alcotest.(check bool) "band in range" true (b >= 0 && b < blocks))
    (C.gates c);
  let pops = Mtcmos.Hierarchy.populations c ~blocks in
  Alcotest.(check int) "populations cover every gate" (C.num_gates c)
    (Array.fold_left ( + ) 0 pops);
  Alcotest.(check bool) "some bands are empty" true
    (Array.exists (fun p -> p = 0) pops)

let test_single_gate_circuit () =
  let b = C.builder tech in
  let a = C.add_input ~name:"a" b in
  let o = C.add_gate b Netlist.Gate.Inv [ a ] in
  C.mark_output b o;
  let c = C.freeze b in
  let pops = Mtcmos.Hierarchy.populations c ~blocks:5 in
  Alcotest.(check int) "single gate lands in one band" 1
    (Array.fold_left ( + ) 0 pops);
  (* the optimizer must compact the 4 empty bands away *)
  let r = Sel.optimize ~clusters:5 c ~delay_budget:0.5 in
  check_result c r;
  Alcotest.(check int) "one compacted cluster" 1 (Array.length r.Sel.sleep_wl)

let test_compaction_more_clusters_than_depth () =
  let c = Fixtures.chain_circuit 3 in
  let r = Sel.optimize ~clusters:8 c ~delay_budget:0.3 in
  check_result c r;
  Alcotest.(check bool) "clusters compacted to at most the gate count" true
    (Array.length r.Sel.sleep_wl <= C.num_gates c)

(* ---- determinism --------------------------------------------------- *)

let signature (r : Sel.result) =
  ( Array.to_list r.Sel.vt_high,
    Array.to_list r.Sel.cluster_of_gate,
    Array.to_list r.Sel.sleep_wl,
    (r.Sel.arrival, r.Sel.leakage, r.Sel.area, r.Sel.objective_value),
    (r.Sel.evaluations, r.Sel.flips_to_low, r.Sel.reclaimed, r.Sel.moves) )

let run_with ~jobs ~cache c ~delay_budget =
  let ctx = Eval.Ctx.(default |> with_jobs jobs) in
  let ctx =
    if cache then Eval.Ctx.with_cache (Eval.Cache.create ()) ctx else ctx
  in
  Sel.optimize ~ctx c ~delay_budget

let test_bit_identical () =
  let c = Fixtures.adder8 () in
  let reference = run_with ~jobs:1 ~cache:false c ~delay_budget:0.1 in
  List.iter
    (fun (jobs, cache) ->
      let r = run_with ~jobs ~cache c ~delay_budget:0.1 in
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d cache=%b bit-identical" jobs cache)
        true
        (signature r = signature reference))
    [ (1, true); (4, false); (4, true); (Fixtures.test_jobs (), true) ]

let test_warm_cache_identical () =
  let c = Fixtures.adder_circuit 4 in
  let cache = Eval.Cache.create () in
  let ctx = Eval.Ctx.(default |> with_cache cache |> with_jobs 2) in
  let a = Sel.optimize ~ctx c ~delay_budget:0.1 in
  let b = Sel.optimize ~ctx c ~delay_budget:0.1 in
  Alcotest.(check bool) "warm-cache rerun bit-identical" true
    (signature a = signature b)

(* ---- QCheck: invariants over random small circuits ----------------- *)

let gen_circuit =
  QCheck.make ~print:(fun (kind, a, b) -> Printf.sprintf "(%d,%d,%d)" kind a b)
    QCheck.Gen.(
      triple (int_range 0 1) (int_range 2 8) (int_range 2 3))

let build (kind, a, b) =
  if kind = 0 then Fixtures.chain_circuit a
  else Fixtures.tree_circuit ~stages:(1 + (a mod 3)) ~fanout:b ()

let prop_optimize_invariants =
  QCheck.Test.make ~count:25
    ~name:"selective: independent STA slack + leakage bound on random circuits"
    QCheck.(
      pair gen_circuit
        (make
           Gen.(
             triple (float_range 0.05 0.4) (int_range 1 5) (int_range 0 2))))
    (fun (spec, (budget, clusters, objective)) ->
      let c = build spec in
      let objective =
        match objective with 0 -> Sel.Leakage | 1 -> Sel.Area | _ -> Sel.Mixed
      in
      match Sel.optimize ~objective ~clusters c ~delay_budget:budget with
      | r ->
        reverify c r <= r.Sel.budget
        && r.Sel.leakage <= r.Sel.ungated_leakage
        && r.Sel.slack >= 0.0
      | exception Not_found -> QCheck.assume_fail ())

let prop_jobs_cache_invariant =
  QCheck.Test.make ~count:10
    ~name:"selective: result invariant in jobs and cache"
    QCheck.(pair gen_circuit (make Gen.(float_range 0.05 0.3)))
    (fun (spec, budget) ->
      let c = build spec in
      match run_with ~jobs:1 ~cache:false c ~delay_budget:budget with
      | a ->
        let b = run_with ~jobs:3 ~cache:true c ~delay_budget:budget in
        signature a = signature b
      | exception Not_found -> QCheck.assume_fail ())

(* ---- differential oracle: exhaustive Vt enumeration ----------------
   On chains and small fanout trees, enumerate all 2^G Vt assignments at
   the optimizer's final clustering, size each with the same
   size_clusters the optimizer uses, and take the cheapest feasible one.
   The greedy answer must stay within the 2.0x bound the .mli
   documents. *)

let oracle_best circuit (r : Sel.result) =
  let n = C.num_gates circuit in
  let k = Array.length r.Sel.sleep_wl in
  let best = ref infinity in
  for mask = 0 to (1 lsl n) - 1 do
    let vt = Array.init n (fun i -> mask land (1 lsl i) <> 0) in
    match
      Sel.size_clusters circuit ~budget:r.Sel.budget ~vt_high:vt
        ~cluster_of_gate:r.Sel.cluster_of_gate ~n_clusters:k
    with
    | wls ->
      let leak =
        Sel.standby_leakage circuit ~vt_high:vt
          ~cluster_of_gate:r.Sel.cluster_of_gate ~sleep_wl:wls
      in
      if leak < !best then best := leak
    | exception Not_found -> ()
  done;
  !best

let test_oracle_chains_and_trees () =
  let cases =
    [ ("chain4", Fixtures.chain_circuit 4);
      ("chain7", Fixtures.chain_circuit 7);
      ("chain10", Fixtures.chain_circuit 10);
      ("tree7", Fixtures.tree_circuit ~stages:3 ~fanout:2 ()) ]
  in
  List.iter
    (fun (name, c) ->
      Alcotest.(check bool)
        (name ^ " small enough for exhaustive enumeration")
        true
        (C.num_gates c <= 12);
      let r = Sel.optimize ~clusters:2 c ~delay_budget:0.15 in
      check_result c r;
      let best = oracle_best c r in
      Alcotest.(check bool) (name ^ " oracle found a feasible assignment")
        true
        (Float.is_finite best);
      Alcotest.(check bool)
        (Printf.sprintf "%s greedy within 2.0x of optimum (%.4g vs %.4g)"
           name r.Sel.leakage best)
        true
        (r.Sel.leakage <= 2.0 *. best +. 1e-30);
      Alcotest.(check bool) (name ^ " oracle never beats the budget check")
        true
        (best <= r.Sel.leakage +. 1e-30 || r.Sel.leakage <= 2.0 *. best))
    cases

(* the optimizer's own answer is one of the enumerated assignments, so
   the oracle can never be worse than the greedy result *)
let test_oracle_contains_greedy () =
  let c = Fixtures.chain_circuit 5 in
  let r = Sel.optimize ~clusters:2 c ~delay_budget:0.2 in
  let best = oracle_best c r in
  Alcotest.(check bool) "oracle <= greedy" true
    (best <= r.Sel.leakage +. 1e-30)

let seeded test =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 0x5e1; 0xec7 |])
    test

let suite =
  [ Alcotest.test_case "adder8 budgets + independent STA" `Quick
      test_adder8_budgets;
    Alcotest.test_case "objectives order as expected" `Quick test_objectives;
    Alcotest.test_case "bounce check reports a peak" `Quick test_bounce_check;
    Alcotest.test_case "infeasible budget raises" `Quick
      test_infeasible_raises;
    Alcotest.test_case "gating validation" `Quick test_validate_gating;
    Alcotest.test_case "objective names roundtrip" `Quick
      test_objective_names;
    Alcotest.test_case "hierarchy: empty bands stay total" `Quick
      test_hierarchy_empty_bands;
    Alcotest.test_case "hierarchy: single-gate circuit" `Quick
      test_single_gate_circuit;
    Alcotest.test_case "compaction beyond depth" `Quick
      test_compaction_more_clusters_than_depth;
    Alcotest.test_case "bit-identical across jobs and cache" `Quick
      test_bit_identical;
    Alcotest.test_case "warm cache rerun identical" `Quick
      test_warm_cache_identical;
    seeded prop_optimize_invariants;
    seeded prop_jobs_cache_invariant;
    Alcotest.test_case "differential oracle: chains and trees" `Slow
      test_oracle_chains_and_trees;
    Alcotest.test_case "oracle contains greedy" `Quick
      test_oracle_contains_greedy ]
