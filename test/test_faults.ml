(* Resilience suite over the fault-injection corpus.

   Contract: every corpus case run through the Result-typed analyses
   either recovers (finite waveforms only) or returns a structured
   [Diag.failure] — never an uncaught exception, a non-finite sample or
   an unbounded run.  Run standalone via [dune build @resilience]. *)

module E = Spice.Engine
module D = Spice.Diag
module F = Spice.Faults
module R = Spice.Recover

let tech = Fixtures.tech

(* a corpus case's engine: its step, its watched node, and [policy] *)
let prep ?(policy = R.default) (case : F.case) =
  E.prepare
    ~opts:
      E.Opts.(
        default |> with_dt case.F.dt
        |> with_record (E.Nodes [ case.F.watch ])
        |> with_policy policy)
    case.F.netlist

let finite_waveform w =
  List.for_all
    (fun (t, v) -> Float.is_finite t && Float.is_finite v)
    (Phys.Pwl.points w)

let check_diagnosis ~what (f : D.failure) =
  Alcotest.(check bool)
    (what ^ ": diagnosis carries a message")
    true
    (String.length f.D.message > 0);
  Alcotest.(check bool)
    (what ^ ": diagnosis renders")
    true
    (String.length (D.failure_to_string f) > 0)

(* recover-or-diagnose, one test per fault class *)
let transient_case fault () =
  let case = F.inject ~tech fault in
  let what = F.name fault in
  let eng = prep case in
  let tm = D.create_telemetry () in
  match E.transient_r eng ~t_stop:case.F.t_stop ~telemetry:tm with
  | Ok res ->
    Alcotest.(check bool)
      (what ^ ": recovered run has only finite samples")
      true
      (finite_waveform (E.waveform res case.F.watch));
    Alcotest.(check bool)
      (what ^ ": final solution is finite")
      true
      (Array.for_all Float.is_finite (E.final_solution res))
  | Error f -> check_diagnosis ~what f
  | exception e ->
    Alcotest.failf "%s: transient_r leaked exception %s" what
      (Printexc.to_string e)

let dc_case fault () =
  let case = F.inject ~tech fault in
  let what = F.name fault in
  let eng = E.prepare case.F.netlist in
  match E.dc_r eng with
  | Ok x ->
    Alcotest.(check bool)
      (what ^ ": DC solution is finite")
      true
      (Array.for_all Float.is_finite x)
  | Error f -> check_diagnosis ~what f
  | exception e ->
    Alcotest.failf "%s: dc_r leaked exception %s" what
      (Printexc.to_string e)

(* strict policy: no ladder — still no leaked exception, and a failure
   must name what was (not) tried *)
let strict_never_raises () =
  List.iter
    (fun (case : F.case) ->
      let eng = prep ~policy:R.strict case in
      (match E.dc_r eng with
       | Ok _ -> ()
       | Error f ->
         Alcotest.(check (list string))
           (F.name case.F.fault ^ ": strict policy tried nothing")
           [] f.D.recovery_attempts
       | exception e ->
         Alcotest.failf "%s: strict dc_r leaked exception %s"
           (F.name case.F.fault) (Printexc.to_string e));
      match E.transient_r eng ~t_stop:case.F.t_stop with
      | Ok _ | Error _ -> ()
      | exception e ->
        Alcotest.failf "%s: strict transient_r leaked exception %s"
          (F.name case.F.fault) (Printexc.to_string e))
    (F.corpus ~tech)

(* the Absurd_timestep case carries the unperturbed base deck; with a
   sane dt it is the suite's healthy reference *)
let healthy_deck () =
  let case = F.inject ~tech F.Absurd_timestep in
  (case.F.netlist, case.F.watch)

(* regression pin: a starved direct solve must be rescued by the gmin
   ladder, and the rescue must be visible in telemetry *)
let gmin_ladder_rescues () =
  let netlist, _ = healthy_deck () in
  let policy = { R.default with R.direct_max_iter = 1 } in
  let eng = E.prepare ~opts:E.Opts.(default |> with_policy policy) netlist in
  let tm = D.create_telemetry () in
  match E.dc_r ~telemetry:tm eng with
  | Error f ->
    Alcotest.failf "starved DC not rescued: %s" (D.failure_to_string f)
  | Ok x ->
    Alcotest.(check bool) "solution finite" true
      (Array.for_all Float.is_finite x);
    Alcotest.(check bool) "gmin ladder ran" true (tm.D.gmin_rounds > 0);
    Alcotest.(check bool) "rescue recorded" true
      (List.mem_assoc (R.strategy_name R.Gmin_ramp) tm.D.recoveries)

(* regression pin: source stepping alone rescues the same starved solve
   and lands on the plain DC answer (it warm-starts from the caller's
   seed, not from all-zeros) *)
let source_stepping_rescues () =
  let netlist, _ = healthy_deck () in
  let eng = E.prepare netlist in
  let reference =
    match E.dc_r eng with
    | Ok x -> x
    | Error f -> Alcotest.failf "reference DC failed: %s" f.D.message
  in
  let policy =
    { R.default with
      R.dc_strategies = [ R.Source_step ];
      direct_max_iter = 1 }
  in
  let starved = E.prepare ~opts:E.Opts.(default |> with_policy policy) netlist in
  let tm = D.create_telemetry () in
  match E.dc_r ~telemetry:tm starved with
  | Error f ->
    Alcotest.failf "source stepping did not rescue: %s"
      (D.failure_to_string f)
  | Ok x ->
    Alcotest.(check bool) "source steps taken" true (tm.D.source_steps > 0);
    Alcotest.(check bool) "rescue recorded" true
      (List.mem_assoc (R.strategy_name R.Source_step) tm.D.recoveries);
    Array.iteri
      (fun i v ->
        Alcotest.(check (float 1e-6))
          (Printf.sprintf "unknown %d matches plain DC" i)
          reference.(i) v)
      x

let transient_dt_validation () =
  let netlist, watch = healthy_deck () in
  let eng =
    E.prepare
      ~opts:E.Opts.(default |> with_dt 2e-9 |> with_record (E.Nodes [ watch ]))
      netlist
  in
  Alcotest.check_raises "dt > t_stop rejected"
    (Invalid_argument "Engine.transient: dt > t_stop") (fun () ->
      ignore (E.transient_r eng ~t_stop:1e-9))

(* bounded effort: even the pathological corpus must finish quickly.
   Generous wall-clock bound — this guards against hangs, not speed. *)
let corpus_terminates_quickly () =
  let t0 = Sys.time () in
  List.iter
    (fun (case : F.case) ->
      let eng = prep case in
      ignore (E.dc_r eng);
      ignore (E.transient_r eng ~t_stop:case.F.t_stop))
    (F.corpus ~tech);
  let elapsed = Sys.time () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "corpus finished in %.1fs" elapsed)
    true (elapsed < 60.0)

let suite =
  List.map
    (fun fault ->
      Alcotest.test_case
        ("transient recover-or-diagnose: " ^ F.name fault)
        `Quick (transient_case fault))
    F.all
  @ List.map
      (fun fault ->
        Alcotest.test_case
          ("dc recover-or-diagnose: " ^ F.name fault)
          `Quick (dc_case fault))
      F.all
  @ [ Alcotest.test_case "strict policy never raises" `Quick
        strict_never_raises;
      Alcotest.test_case "gmin ladder rescues starved DC" `Quick
        gmin_ladder_rescues;
      Alcotest.test_case "source stepping rescues starved DC" `Quick
        source_stepping_rescues;
      Alcotest.test_case "transient rejects dt > t_stop" `Quick
        transient_dt_validation;
      Alcotest.test_case "fault corpus terminates quickly" `Slow
        corpus_terminates_quickly ]

let () = Alcotest.run "resilience" [ ("faults", suite) ]
