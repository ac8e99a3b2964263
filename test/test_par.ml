(* Par.Pool determinism suite: the parallel results must be bit-for-bit
   the sequential ones for every worker count, worker failures must
   propagate (not hang), and the per-worker accumulator merge must see
   states in worker order with exact counter totals. *)

let tech = Fixtures.tech

let check_float_array = Alcotest.(check (array (float 0.0)))

(* a workload whose result depends on the index in a non-trivial way *)
let work i =
  let x = float_of_int (i + 1) in
  (sin x *. sqrt x) +. (1.0 /. x)

let test_map_matches_sequential () =
  let n = 37 in
  let expected = Array.init n work in
  List.iter
    (fun jobs ->
      check_float_array
        (Printf.sprintf "map jobs=%d" jobs)
        expected
        (Par.Pool.map ~jobs n work);
      (* non-default chunking must not change the result either *)
      check_float_array
        (Printf.sprintf "map jobs=%d chunk=3" jobs)
        expected
        (Par.Pool.map ~jobs ~chunk:3 n work))
    [ 1; 2; 8 ]

let test_map_list_matches_list_map () =
  let xs = List.init 23 (fun i -> i * 7) in
  let f x = Printf.sprintf "<%d>" (x * x) in
  let expected = List.map f xs in
  List.iter
    (fun jobs ->
      Alcotest.(check (list string))
        (Printf.sprintf "map_list jobs=%d" jobs)
        expected
        (Par.Pool.map_list ~jobs f xs))
    [ 1; 2; 8 ]

let test_map_edge_sizes () =
  List.iter
    (fun jobs ->
      check_float_array "empty" [||] (Par.Pool.map ~jobs 0 work);
      check_float_array "singleton" [| work 0 |] (Par.Pool.map ~jobs 1 work))
    [ 1; 2; 8 ]

let test_map_reduce_index_order () =
  (* string concatenation is not commutative: any out-of-order reduction
     scrambles the digits *)
  let n = 17 in
  let expected = String.concat "" (List.init n string_of_int) in
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "map_reduce jobs=%d" jobs)
        expected
        (Par.Pool.map_reduce ~jobs ~chunk:2 ~n ~map:string_of_int
           ~reduce:( ^ ) ~init:""))
    [ 1; 2; 8 ]

exception Boom of int

let test_exception_propagates () =
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "worker exception jobs=%d" jobs)
        (Boom 5)
        (fun () ->
          ignore
            (Par.Pool.map ~jobs 16 (fun i ->
                 if i = 5 then raise (Boom i) else work i))))
    [ 1; 2; 8 ]

let test_exception_lowest_worker_wins () =
  (* with chunk=1 and jobs=2, index 0 belongs to worker 0 and index 1 to
     worker 1; both fail, and the deterministic rule is that the lowest
     failing worker's exception surfaces *)
  Alcotest.check_raises "lowest worker's exception" (Boom 0) (fun () ->
      ignore
        (Par.Pool.map ~jobs:2 ~chunk:1 8 (fun i ->
             if i <= 1 then raise (Boom i) else work i)))

let test_stateful_worker_order () =
  (* chunk=1, jobs=2, n=6: worker 0 owns indices 0,2,4 and worker 1 owns
     1,3,5.  The merged trace must list worker 0's indices (in index
     order) then worker 1's — static assignment, worker-order merge. *)
  let trace = ref [] in
  let results =
    Par.Pool.map_stateful ~jobs:2 ~chunk:1
      ~create:(fun () -> ref [])
      ~merge:(fun w -> trace := !trace @ List.rev !w)
      6
      (fun w i ->
        w := i :: !w;
        i * 10)
  in
  Alcotest.(check (array int))
    "results in index order"
    [| 0; 10; 20; 30; 40; 50 |]
    results;
  Alcotest.(check (list int)) "worker-order merge" [ 0; 2; 4; 1; 3; 5 ] !trace

let test_resolve_jobs () =
  Alcotest.(check int) "explicit" 3 (Par.Pool.resolve_jobs (Some 3));
  Alcotest.(check int)
    "default" (Par.Pool.default_jobs ())
    (Par.Pool.resolve_jobs None);
  Alcotest.check_raises "zero rejected"
    (Invalid_argument "Par.Pool: jobs = 0") (fun () ->
      ignore (Par.Pool.resolve_jobs (Some 0)))

(* resilience accounting under parallelism: a transistor-level sweep
   whose recovery budget is deliberately strangled must report the same
   counters (and the same measurements) at jobs = 1 and jobs = 2 *)
let test_resilience_counters_match_sequential () =
  let ch = Fixtures.chain 4 in
  let c = ch.Circuits.Chain.circuit in
  let vec = ([ (1, 0) ], [ (1, 1) ]) in
  let policy =
    Spice.Recover.with_newton_budget 4 Spice.Recover.default
  in
  let run jobs =
    let stats = Eval.Resilience.create () in
    let ms =
      Mtcmos.Sizing.sweep
        ~ctx:
          Eval.Ctx.(
            default |> with_engine Eval.Spice_level |> with_stats stats
            |> with_policy policy |> with_jobs jobs)
        c ~vectors:[ vec ] ~wls:[ 2.0; 5.0; 10.0; 20.0 ]
    in
    (ms, stats)
  in
  let ms1, s1 = run 1 in
  let ms2, s2 = run 2 in
  Alcotest.(check bool) "measurements identical" true (ms1 = ms2);
  let counters (s : Eval.Resilience.t) =
    ( s.Eval.Resilience.attempted,
      s.Eval.Resilience.direct,
      s.Eval.Resilience.recovered,
      s.Eval.Resilience.skipped,
      s.Eval.Resilience.fallback,
      s.Eval.Resilience.scored_zero )
  in
  Alcotest.(check (pair int (pair int (pair int (pair int (pair int int))))))
    "counters identical"
    (let a, b, c', d, e, f = counters s1 in
     (a, (b, (c', (d, (e, f))))))
    (let a, b, c', d, e, f = counters s2 in
     (a, (b, (c', (d, (e, f))))));
  Alcotest.(check (list (pair string int)))
    "recovery strategies identical" s1.Eval.Resilience.strategies
    s2.Eval.Resilience.strategies;
  let skip_tags (s : Eval.Resilience.t) =
    List.map (fun (label, _, _) -> label) s.Eval.Resilience.skips
  in
  Alcotest.(check (list string))
    "skip labels identical" (skip_tags s1) (skip_tags s2);
  Alcotest.(check bool)
    "something was attempted" true
    (s1.Eval.Resilience.attempted > 0)

(* the Search.score zero-conflation fix: a transient that fails after
   recovery scores 0 AND is recorded as a Scored_zero skip, while an
   honest nothing-switches transition scores 0 with successful analyses
   and no skip — the accumulator can now tell them apart *)
let test_scored_zero_distinct_from_quiet_zero () =
  let ch = Fixtures.chain 3 in
  let c = ch.Circuits.Chain.circuit in
  let sleep =
    Mtcmos.Breakpoint_sim.Sleep_fet
      (Device.Sleep.make tech.Device.Tech.sleep_nmos ~wl:6.0 ~vdd:1.2)
  in
  (* nothing switches: before = after *)
  let quiet = Eval.Resilience.create () in
  let s_quiet =
    Mtcmos.Search.score
      ~ctx:
        Eval.Ctx.(
          default |> with_engine Eval.Spice_level |> with_stats quiet)
      c ~sleep Mtcmos.Search.Max_degradation
      ([ (1, 0) ], [ (1, 0) ])
  in
  Alcotest.(check (float 0.0)) "quiet zero" 0.0 s_quiet;
  Alcotest.(check int) "quiet: no skips" 0 quiet.Eval.Resilience.skipped;
  Alcotest.(check int)
    "quiet: no scored-zero" 0 quiet.Eval.Resilience.scored_zero;
  Alcotest.(check bool)
    "quiet: analyses succeeded" true
    (quiet.Eval.Resilience.attempted > 0
    && quiet.Eval.Resilience.direct + quiet.Eval.Resilience.recovered
       = quiet.Eval.Resilience.attempted);
  (* transient failure: a one-iteration Newton budget cannot converge *)
  let broken = Eval.Resilience.create () in
  let s_broken =
    Mtcmos.Search.score
      ~ctx:
        Eval.Ctx.(
          default |> with_engine Eval.Spice_level |> with_stats broken
          |> with_policy
               (Spice.Recover.with_newton_budget 1 Spice.Recover.strict))
      c ~sleep Mtcmos.Search.Max_degradation
      ([ (1, 0) ], [ (1, 1) ])
  in
  Alcotest.(check (float 0.0)) "failure scores zero" 0.0 s_broken;
  Alcotest.(check bool)
    "failure recorded as scored-zero" true
    (broken.Eval.Resilience.scored_zero > 0);
  Alcotest.(check int)
    "scored-zero skips are the only skips"
    broken.Eval.Resilience.skipped broken.Eval.Resilience.scored_zero;
  (* and the report names them *)
  let report = Eval.Resilience.report_string broken in
  Alcotest.(check bool)
    "report mentions scored-0 candidates" true
    (let re = "scored 0" in
     let n = String.length report and m = String.length re in
     let rec find i = i + m <= n && (String.sub report i m = re || find (i + 1)) in
     find 0)

(* merged telemetry: two accumulators folded with Diag.merge_telemetry
   must sum every counter and merge the recovery lists *)
let test_merge_telemetry () =
  let tm name =
    { Spice.Diag.newton_iterations = 10;
      factorizations = 4;
      step_rejections = 2;
      gmin_rounds = 1;
      source_steps = 0;
      recoveries = [ (name, 1) ];
      wall_s = 0.5 }
  in
  let into = tm "gmin" in
  Spice.Diag.merge_telemetry ~into (tm "gmin");
  Spice.Diag.merge_telemetry ~into (tm "source-step");
  Alcotest.(check int) "newton" 30 into.Spice.Diag.newton_iterations;
  Alcotest.(check int) "factorizations" 12 into.Spice.Diag.factorizations;
  Alcotest.(check int) "rejections" 6 into.Spice.Diag.step_rejections;
  Alcotest.(check (list (pair string int)))
    "recoveries merged"
    [ ("gmin", 2); ("source-step", 1) ]
    into.Spice.Diag.recoveries;
  Alcotest.(check (float 1e-9)) "wall time" 1.5 into.Spice.Diag.wall_s

(* --- Cooperative cancellation ---------------------------------------- *)

let test_cancel_token_basics () =
  let t = Par.Cancel.create () in
  Alcotest.(check bool) "fresh token is live" false (Par.Cancel.cancelled t);
  Par.Cancel.check t (* must not raise *);
  Par.Cancel.cancel t;
  Alcotest.(check bool) "cancel latches" true (Par.Cancel.cancelled t);
  (match Par.Cancel.check t with
   | () -> Alcotest.fail "check did not raise"
   | exception Par.Cancel.Cancelled -> ());
  (* an already-expired deadline cancels without an explicit cancel *)
  let d = Par.Cancel.create ~deadline:(Unix.gettimeofday () -. 1.0) () in
  Alcotest.(check bool) "past deadline cancels" true (Par.Cancel.cancelled d);
  let far = Par.Cancel.create ~deadline:(Unix.gettimeofday () +. 3600.0) () in
  Alcotest.(check bool) "future deadline is live" false
    (Par.Cancel.cancelled far)

let test_cancel_pool_raises_untorn () =
  (* a pre-cancelled token: the pool must raise and evaluate nothing
     beyond the chunks already committed (here: at most one per worker
     before the first poll... in fact none, since the poll precedes the
     first chunk) *)
  List.iter
    (fun jobs ->
      let cancel = Par.Cancel.create () in
      Par.Cancel.cancel cancel;
      let touched = Atomic.make 0 in
      match
        Par.Pool.map ~jobs ~cancel 64 (fun i ->
            Atomic.incr touched;
            i)
      with
      | _ -> Alcotest.failf "pre-cancelled map returned at jobs=%d" jobs
      | exception Par.Cancel.Cancelled ->
        Alcotest.(check int)
          (Printf.sprintf "no work after cancel at jobs=%d" jobs)
          0 (Atomic.get touched))
    [ 1; 4 ]

let test_cancel_mid_flight_stops_launching () =
  (* trip the token from inside the map: chunks already running finish,
     later chunks never start, and the call raises after the join *)
  let cancel = Par.Cancel.create () in
  let touched = Atomic.make 0 in
  match
    Par.Pool.map ~jobs:2 ~chunk:1 ~cancel 1000 (fun i ->
        Atomic.incr touched;
        if i = 0 then Par.Cancel.cancel cancel;
        i)
  with
  | _ -> Alcotest.fail "cancelled map returned"
  | exception Par.Cancel.Cancelled ->
    Alcotest.(check bool)
      "stopped early" true
      (Atomic.get touched < 1000)

let test_uncancelled_map_unchanged () =
  (* supplying a live token must not change the result *)
  let cancel = Par.Cancel.create () in
  let plain = Par.Pool.map ~jobs:4 100 (fun i -> i * i) in
  let with_token = Par.Pool.map ~jobs:4 ~cancel 100 (fun i -> i * i) in
  Alcotest.(check bool) "identical results" true (plain = with_token)

let suite =
  [ Alcotest.test_case "map = sequential for jobs 1/2/8" `Quick
      test_map_matches_sequential;
    Alcotest.test_case "map_list = List.map" `Quick
      test_map_list_matches_list_map;
    Alcotest.test_case "empty and singleton ranges" `Quick
      test_map_edge_sizes;
    Alcotest.test_case "map_reduce reduces in index order" `Quick
      test_map_reduce_index_order;
    Alcotest.test_case "worker exception propagates" `Quick
      test_exception_propagates;
    Alcotest.test_case "lowest failing worker wins" `Quick
      test_exception_lowest_worker_wins;
    Alcotest.test_case "stateful merge in worker order" `Quick
      test_stateful_worker_order;
    Alcotest.test_case "resolve_jobs" `Quick test_resolve_jobs;
    Alcotest.test_case "resilience counters match sequential" `Slow
      test_resilience_counters_match_sequential;
    Alcotest.test_case "scored-zero distinct from nothing-switches" `Quick
      test_scored_zero_distinct_from_quiet_zero;
    Alcotest.test_case "telemetry merge sums counters" `Quick
      test_merge_telemetry;
    Alcotest.test_case "cancel token basics" `Quick test_cancel_token_basics;
    Alcotest.test_case "pre-cancelled pool raises untorn" `Quick
      test_cancel_pool_raises_untorn;
    Alcotest.test_case "mid-flight cancel stops launching chunks" `Quick
      test_cancel_mid_flight_stops_launching;
    Alcotest.test_case "live token leaves results unchanged" `Quick
      test_uncancelled_map_unchanged ]
