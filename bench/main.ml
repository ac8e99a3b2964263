(* Experiment harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md's experiment index) plus the ablations, and
   runs Bechamel microbenchmarks of the two engines.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe fig10 cpu  -- selected experiments
     dune exec bench/main.exe fast       -- everything, skipping the
                                            slowest transistor-level runs

   Absolute numbers differ from the 1997 paper (its SPICE decks and
   process files are not public); the quantities to compare are the
   shapes: who wins, by what factor, where the crossovers sit. *)

module BP = Mtcmos.Breakpoint_sim
module SR = Mtcmos.Spice_ref
module S = Netlist.Signal

let t07 = Device.Tech.mtcmos_07um
let t03 = Device.Tech.mtcmos_03um

let eng = Phys.Units.to_eng_string
let header title = Format.printf "@.=== %s ===@." title

(* optional CSV dumps: `dune exec bench/main.exe -- csv=DIR ...` *)
let csv_dir : string option ref = ref None

let maybe_csv name table =
  match !csv_dir with
  | None -> ()
  | Some dir ->
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let path = Filename.concat dir (name ^ ".csv") in
    Phys.Table.write_csv table ~path;
    Format.printf "(csv written to %s)@." path

let sleep_of tech wl =
  BP.Sleep_fet
    (Device.Sleep.make tech.Device.Tech.sleep_nmos ~wl
       ~vdd:tech.Device.Tech.vdd)

let bp_delay ?(config = BP.default_config) c ~before ~after =
  let r = BP.simulate_ints ~config c ~before ~after in
  match BP.critical_delay r with Some (_, d) -> d | None -> nan

let sp_delay ~config c ~before ~after =
  let r = SR.run_ints ~config c ~before ~after in
  match SR.critical_delay r with Some (_, d) -> d | None -> nan

(* ---- shared fixtures ------------------------------------------------------ *)

let tree = Circuits.Inverter_tree.make t07 ~stages:3 ~fanout:3
let tree_c = tree.Circuits.Inverter_tree.circuit
let tree_vec = ([ (1, 0) ], [ (1, 1) ])

let adder = Circuits.Ripple_adder.make t07 ~bits:3
let adder_c = adder.Circuits.Ripple_adder.circuit

let mult = Circuits.Csa_multiplier.make t03 ~bits:8
let mult_c = mult.Circuits.Csa_multiplier.circuit

let mult_vec_a =
  let (x0, y0), (x1, y1) = Circuits.Csa_multiplier.vector_a in
  ([ (8, x0); (8, y0) ], [ (8, x1); (8, y1) ])

let mult_vec_b =
  let (x0, y0), (x1, y1) = Circuits.Csa_multiplier.vector_b in
  ([ (8, x0); (8, y0) ], [ (8, x1); (8, y1) ])

let fig5_wls = [ 2.0; 5.0; 8.0; 11.0; 14.0; 17.0; 20.0 ]

(* ---- FIG 5: inverter-tree transients vs W/L ------------------------------- *)

let fig5 () =
  header
    "FIG 5: inverter-tree leaf transients and virtual-ground bump \
     (transistor level)";
  Format.printf
    "paper: output slows visibly as W/L shrinks 20 -> 2; vgnd shows a \
     small bump (stage 1) then a large one (stage 3)@.";
  let leaf = Circuits.Inverter_tree.leaf_net tree in
  let runs =
    List.map
      (fun wl ->
        let config =
          { SR.default_config with SR.sleep = sleep_of t07 wl;
            t_stop = 16e-9; dt = Some 4e-12 }
        in
        (wl, SR.run_ints ~config tree_c ~before:(fst tree_vec)
               ~after:(snd tree_vec)))
      fig5_wls
  in
  Format.printf "@.%-8s %-14s %-14s@." "W/L" "leaf 50% fall" "vgnd peak";
  List.iter
    (fun (wl, r) ->
      let d =
        match SR.net_delay r leaf with Some d -> d | None -> nan
      in
      Format.printf "%-8.0f %-14s %-14s@." wl (eng ~unit:"s" d)
        (eng ~unit:"V" (SR.vx_peak r)))
    runs;
  (* the transient family, sampled: leaf output per W/L *)
  Format.printf "@.leaf output voltage [V] vs time:@.%-10s" "t";
  List.iter (fun (wl, _) -> Format.printf "W/L=%-6.0f" wl) runs;
  Format.printf "@.";
  let t_grid = Phys.Float_utils.linspace 0.0 12e-9 13 in
  Array.iter
    (fun t ->
      Format.printf "%-10s" (eng ~unit:"s" t);
      List.iter
        (fun (_, r) ->
          let w = SR.net_waveform r leaf in
          Format.printf "%-10.3f" (Phys.Pwl.value_at w t))
        runs;
      Format.printf "@.")
    t_grid;
  (* the two-bump virtual ground at a mid size *)
  let _, r8 = List.nth runs 2 in
  (match SR.vground_waveform r8 with
   | Some vg ->
     Format.printf "@.virtual ground at W/L = 8 (note stage-1 bump then \
                    stage-3 bump):@.%s@."
       (Phys.Ascii_plot.waveforms ~t0:0.0 ~t1:8e-9 [ ('*', vg) ])
   | None -> ());
  (* leaf transient family, fastest and slowest *)
  (match (runs, List.rev runs) with
   | (wl_lo, r_lo) :: _, (wl_hi, r_hi) :: _ ->
     Format.printf
       "@.leaf transients: '%c' = W/L %.0f, '%c' = W/L %.0f:@.%s@." 'a'
       wl_lo 'z' wl_hi
       (Phys.Ascii_plot.waveforms ~t0:0.0 ~t1:14e-9
          [ ('a', SR.net_waveform r_lo leaf);
            ('z', SR.net_waveform r_hi leaf) ])
   | _ -> ())

(* ---- FIG 10: tree delay, SPICE vs switch-level, vs W/L --------------------- *)

let fig10 () =
  header "FIG 10: inverter-tree delay vs W/L, both engines";
  Format.printf
    "paper: the switch-level simulator tracks the SPICE curve shape@.";
  Format.printf "@.%-8s %-12s %-12s %-8s@." "W/L" "spice" "switch-level"
    "ratio";
  let table =
    Phys.Table.create ~columns:[ "wl"; "spice_s"; "switch_level_s" ]
  in
  let ratios =
    List.map
      (fun wl ->
        let sp =
          Mtcmos.Sizing.delay_at ~ctx:Eval.Ctx.(default |> with_engine Eval.Spice_level) tree_c
            ~vectors:[ tree_vec ] ~wl
        in
        let bp =
          Mtcmos.Sizing.delay_at ~ctx:Eval.Ctx.(default |> with_engine Eval.Breakpoint) tree_c
            ~vectors:[ tree_vec ] ~wl
        in
        let ratio =
          bp.Mtcmos.Sizing.mtcmos_delay /. sp.Mtcmos.Sizing.mtcmos_delay
        in
        Phys.Table.add_floats table
          [ wl; sp.Mtcmos.Sizing.mtcmos_delay;
            bp.Mtcmos.Sizing.mtcmos_delay ];
        Format.printf "%-8.0f %-12s %-12s %-8.2f@." wl
          (eng ~unit:"s" sp.Mtcmos.Sizing.mtcmos_delay)
          (eng ~unit:"s" bp.Mtcmos.Sizing.mtcmos_delay)
          ratio;
        ratio)
      fig5_wls
  in
  maybe_csv "fig10" table;
  let s = Phys.Stats.summarize (Array.of_list ratios) in
  Format.printf "ratio spread: %a@." Phys.Stats.pp_summary s

(* ---- FIG 11: ground-bounce transient comparison ---------------------------- *)

let fig11 () =
  header "FIG 11: virtual-ground transient, SPICE vs switch-level (W/L = 14)";
  Format.printf
    "paper: simulator's stepwise bounce tracks the SPICE transient@.";
  let wl = 14.0 in
  let sp_cfg =
    { SR.default_config with SR.sleep = sleep_of t07 wl; t_stop = 8e-9;
      dt = Some 4e-12 }
  in
  let sp = SR.run_ints ~config:sp_cfg tree_c ~before:(fst tree_vec)
      ~after:(snd tree_vec) in
  let bp_cfg = { BP.default_config with BP.sleep = sleep_of t07 wl } in
  let bp = BP.simulate_ints ~config:bp_cfg tree_c ~before:(fst tree_vec)
      ~after:(snd tree_vec) in
  let vg_sp =
    match SR.vground_waveform sp with
    | Some w -> w
    | None -> Phys.Pwl.constant 0.0
  in
  (* align the simulator's t=0 input step with the spice ramp midpoint *)
  let vg_bp =
    Phys.Pwl.shift (BP.vground_waveform bp)
      (sp_cfg.SR.t_start +. (sp_cfg.SR.ramp /. 2.0))
  in
  Format.printf "@.%-10s %-12s %-12s@." "t" "vx spice" "vx switch-level";
  Array.iter
    (fun t ->
      Format.printf "%-10s %-12.4f %-12.4f@." (eng ~unit:"s" t)
        (Phys.Pwl.value_at vg_sp t)
        (Phys.Pwl.value_at vg_bp t))
    (Phys.Float_utils.linspace 0.0 6e-9 16);
  maybe_csv "fig11"
    (Phys.Table.waveform_csv
       [ ("vx_spice", vg_sp); ("vx_switch_level", vg_bp) ]
       ~t0:0.0 ~t1:6e-9 ~n:200);
  Format.printf "peaks: spice %s, switch-level %s@."
    (eng ~unit:"V" (SR.vx_peak sp))
    (eng ~unit:"V" (BP.vx_peak bp))

(* ---- FIG 7 + TABLE 1: multiplier input-vector dependence -------------------- *)

let fig7 ~fast () =
  header "FIG 7: 8x8 multiplier delay vs W/L for two input vectors";
  Format.printf
    "paper: vector A (00,00)->(FF,81) floods the array and needs W/L>170 \
     for 5%%;@.vector B (7F,81)->(FF,81) ripples and would mislead sizing \
     to W/L~60@.";
  let wls = [ 30.0; 60.0; 100.0; 170.0; 300.0; 500.0 ] in
  Format.printf "@.switch-level sweep:@.%-10s %-26s %-26s@." "W/L"
    "vector A delay (degr.)" "vector B delay (degr.)";
  let sweep vec = Mtcmos.Sizing.sweep mult_c ~vectors:[ vec ] ~wls in
  let ms_a = sweep mult_vec_a and ms_b = sweep mult_vec_b in
  List.iter2
    (fun (a : Mtcmos.Sizing.measurement) (b : Mtcmos.Sizing.measurement) ->
      Format.printf "%-10.0f %-12s (%5.1f%%)       %-12s (%5.1f%%)@."
        a.Mtcmos.Sizing.wl
        (eng ~unit:"s" a.Mtcmos.Sizing.mtcmos_delay)
        (100.0 *. a.Mtcmos.Sizing.degradation)
        (eng ~unit:"s" b.Mtcmos.Sizing.mtcmos_delay)
        (100.0 *. b.Mtcmos.Sizing.degradation))
    ms_a ms_b;
  (* Fig. 6's caption gives the 4x4 version's vectors verbatim *)
  Format.printf
    "@.4x4 version with Fig. 6's literal vectors (1: X 0000->1111, \
     Y 0000->1001; 2: X 0111->1111, Y 1001):@.";
  let m4 = Circuits.Csa_multiplier.make t03 ~bits:4 in
  let c4 = m4.Circuits.Csa_multiplier.circuit in
  let v1 = ([ (4, 0x0); (4, 0x0) ], [ (4, 0xF); (4, 0x9) ]) in
  let v2 = ([ (4, 0x7); (4, 0x9) ], [ (4, 0xF); (4, 0x9) ]) in
  List.iter
    (fun (name, vec) ->
      let ms =
        Mtcmos.Sizing.sweep c4 ~vectors:[ vec ] ~wls:[ 15.0; 30.0; 60.0 ]
      in
      Format.printf "  vector %s:" name;
      List.iter
        (fun (m : Mtcmos.Sizing.measurement) ->
          Format.printf "  W/L=%-3.0f %5.1f%%" m.Mtcmos.Sizing.wl
            (100.0 *. m.Mtcmos.Sizing.degradation))
        ms;
      Format.printf "@.")
    [ ("1 (larger currents)", v1); ("2 (smaller currents)", v2) ];
  if not fast then begin
    Format.printf
      "@.transistor-level anchors at W/L = 170 (full Level-1 netlist, %d \
       devices):@."
      (Netlist.Circuit.transistor_count mult_c + 1);
    let anchor name vec =
      let config =
        { SR.default_config with SR.sleep = sleep_of t03 170.0;
          t_stop = 8e-9; dt = Some 4e-12; t_start = 500e-12 }
      in
      let d = sp_delay ~config mult_c ~before:(fst vec) ~after:(snd vec) in
      Format.printf "  vector %s: %s@." name (eng ~unit:"s" d)
    in
    anchor "A" mult_vec_a;
    anchor "B" mult_vec_b
  end

let table1 () =
  header "TABLE 1: % degradation vs W/L for the two multiplier vectors";
  Format.printf
    "paper values:      W/L=60: A 18.1%%  |  W/L=170: A ~5%%  |  W/L=500: \
     A 1.7%%;@.sizing by vector B at 5%% picks W/L=60 and costs ~18%% on \
     vector A@.";
  let wls = [ 60.0; 170.0; 500.0 ] in
  let row name vec =
    let ms = Mtcmos.Sizing.sweep mult_c ~vectors:[ vec ] ~wls in
    Format.printf "%-10s" name;
    List.iter
      (fun (m : Mtcmos.Sizing.measurement) ->
        Format.printf "  W/L=%-4.0f %5.1f%%" m.Mtcmos.Sizing.wl
          (100.0 *. m.Mtcmos.Sizing.degradation))
      ms;
    Format.printf "@."
  in
  Format.printf "@.measured:@.";
  row "vector A" mult_vec_a;
  row "vector B" mult_vec_b;
  let wl_a =
    Mtcmos.Sizing.size_for_degradation mult_c ~vectors:[ mult_vec_a ]
      ~target:0.05
  in
  let wl_b =
    Mtcmos.Sizing.size_for_degradation mult_c ~vectors:[ mult_vec_b ]
      ~target:0.05
  in
  let trap =
    Mtcmos.Sizing.delay_at mult_c ~vectors:[ mult_vec_a ] ~wl:wl_b
  in
  Format.printf
    "5%% sizing: by vector A -> W/L = %.0f; by vector B -> W/L = %.0f \
     (then vector A degrades %.1f%%)@."
    wl_a wl_b
    (100.0 *. trap.Mtcmos.Sizing.degradation);
  (* §4: the peak-current method *)
  Format.printf "@.SEC 4: peak-current sizing baseline@.";
  Format.printf
    "paper: peak 1.174 mA held to 50 mV needs W/L > 500, ~3x larger than \
     necessary@.";
  let i_peak =
    Mtcmos.Estimators.peak_current_of_transition mult_c
      ~before:(fst mult_vec_a) ~after:(snd mult_vec_a)
  in
  let wl_pc = Mtcmos.Estimators.peak_current_wl t03 ~i_peak ~v_budget:0.05 in
  Format.printf
    "measured: peak %s held to 50 mV needs W/L = %.0f, i.e. %.1fx the \
     simulator-driven size %.0f@."
    (eng ~unit:"A" i_peak) wl_pc (wl_pc /. wl_a) wl_a;
  Format.printf "sum-of-widths baseline: W/L = %.0f (%.1fx)@."
    (Mtcmos.Estimators.sum_of_widths mult_c)
    (Mtcmos.Estimators.sum_of_widths mult_c /. wl_a);
  (* transistor-level confirmation of the peak current on the tree *)
  let sp_cfg =
    { SR.default_config with SR.sleep = sleep_of t07 20.0; t_stop = 8e-9 }
  in
  let sp = SR.run_ints ~config:sp_cfg tree_c ~before:(fst tree_vec)
      ~after:(snd tree_vec) in
  let bp = BP.simulate_ints
      ~config:{ BP.default_config with BP.sleep = sleep_of t07 20.0 }
      tree_c ~before:(fst tree_vec) ~after:(snd tree_vec) in
  Format.printf
    "peak sleep current cross-check (tree, W/L=20): transistor level %s, \
     tool %s@."
    (eng ~unit:"A" (SR.peak_sleep_current sp))
    (eng ~unit:"A" (BP.peak_discharge_current bp))

(* ---- FIG 13: 3-bit adder delay vs W/L, both engines ------------------------- *)

let adder_fig13_vec = ([ (3, 0); (3, 1) ], [ (3, 6); (3, 5) ])

let fig13 () =
  header "FIG 13: 3-bit ripple adder delay vs W/L, SPICE vs switch-level";
  Format.printf
    "paper: adder agreement is closer than the tree's (matched loads)@.";
  Format.printf "@.%-8s %-12s %-12s %-8s@." "W/L" "spice" "switch-level"
    "ratio";
  let table =
    Phys.Table.create ~columns:[ "wl"; "spice_s"; "switch_level_s" ]
  in
  let ratios =
    List.map
      (fun wl ->
        let sp =
          Mtcmos.Sizing.delay_at ~ctx:Eval.Ctx.(default |> with_engine Eval.Spice_level) adder_c
            ~vectors:[ adder_fig13_vec ] ~wl
        in
        let bp =
          Mtcmos.Sizing.delay_at ~ctx:Eval.Ctx.(default |> with_engine Eval.Breakpoint) adder_c
            ~vectors:[ adder_fig13_vec ] ~wl
        in
        let ratio =
          bp.Mtcmos.Sizing.mtcmos_delay /. sp.Mtcmos.Sizing.mtcmos_delay
        in
        Phys.Table.add_floats table
          [ wl; sp.Mtcmos.Sizing.mtcmos_delay;
            bp.Mtcmos.Sizing.mtcmos_delay ];
        Format.printf "%-8.0f %-12s %-12s %-8.2f@." wl
          (eng ~unit:"s" sp.Mtcmos.Sizing.mtcmos_delay)
          (eng ~unit:"s" bp.Mtcmos.Sizing.mtcmos_delay)
          ratio;
        ratio)
      [ 4.0; 6.0; 10.0; 16.0; 25.0; 40.0 ]
  in
  maybe_csv "fig13" table;
  let s = Phys.Stats.summarize (Array.of_list ratios) in
  Format.printf "ratio spread: %a@." Phys.Stats.pp_summary s

(* ---- FIG 14: per-vector degradation ordering -------------------------------- *)

let fig14 ~fast () =
  header
    "FIG 14: %% degradation at W/L = 10 across S2-flipping transitions \
     (worst -> best)";
  Format.printf
    "paper: 800 S2 transitions; simulator scatters around the SPICE \
     line but the trend is correct@.";
  let s2 = adder.Circuits.Ripple_adder.sums.(2) in
  let pairs =
    Mtcmos.Vectors.involving_output adder_c ~net:s2
      ~pairs:(Mtcmos.Vectors.enumerate_pairs ~widths:[ 3; 3 ])
  in
  Format.printf "S2-flipping transitions found: %d@." (List.length pairs);
  let sleep = sleep_of t07 10.0 in
  let ranked = Mtcmos.Vectors.rank adder_c ~sleep ~pairs in
  let n = List.length ranked in
  let degr = Array.of_list (List.map (fun r -> r.Mtcmos.Vectors.degradation) ranked) in
  (match !csv_dir with
   | Some _ ->
     let table = Phys.Table.create ~columns:[ "rank"; "degradation" ] in
     List.iteri
       (fun i r ->
         Phys.Table.add_floats table
           [ float_of_int i; r.Mtcmos.Vectors.degradation ])
       ranked;
     maybe_csv "fig14" table
   | None -> ());
  Format.printf
    "@.switch-level degradation curve (ordered worst -> best), %d points:@."
    n;
  List.iter
    (fun q ->
      Format.printf "  rank %3.0f%% %s %5.1f%%@." q
        (if q = 0.0 then "(worst)" else if q = 100.0 then "(best) "
         else "       ")
        (100.0 *. Phys.Stats.percentile degr (100.0 -. q)))
    [ 0.0; 10.0; 25.0; 50.0; 75.0; 90.0; 100.0 ];
  (* transistor-level points across the ranking *)
  let n_anchor = if fast then 6 else 24 in
  let idx = Array.init n_anchor (fun i -> i * (n - 1) / (n_anchor - 1)) in
  Format.printf
    "@.transistor-level check at %d rank positions:@.%-6s %-12s %-12s@."
    n_anchor "rank" "switch-level" "spice";
  let bp_pts = ref [] and sp_pts = ref [] in
  Array.iter
    (fun i ->
      let r = List.nth ranked i in
      let before, after = r.Mtcmos.Vectors.pair in
      let sp_cfg =
        { SR.default_config with SR.sleep; t_stop = 8e-9 }
      in
      let d_mt = sp_delay ~config:sp_cfg adder_c ~before ~after in
      let d_cm =
        sp_delay ~config:SR.default_config adder_c ~before ~after
      in
      let sp_degr = (d_mt -. d_cm) /. d_cm in
      bp_pts := r.Mtcmos.Vectors.degradation :: !bp_pts;
      sp_pts := sp_degr :: !sp_pts;
      Format.printf "%-6d %11.1f%% %11.1f%%@." i
        (100.0 *. r.Mtcmos.Vectors.degradation)
        (100.0 *. sp_degr))
    idx;
  let rho =
    Phys.Stats.rank_correlation
      (Array.of_list !bp_pts) (Array.of_list !sp_pts)
  in
  Format.printf "rank correlation (tool vs transistor level): %.2f@." rho

(* ---- CPU-time table ---------------------------------------------------------- *)

let cpu ~fast () =
  header "CPU: exhaustive 4096-vector adder sweep, tool vs SPICE substitute";
  Format.printf
    "paper: SPICE 4.78 h on a Sparc 5 vs 13.5 s for the tool (~1275x)@.";
  let config = { BP.default_config with BP.sleep = sleep_of t07 10.0 } in
  let t0 = Unix.gettimeofday () in
  let count = ref 0 in
  for b1 = 0 to 63 do
    for b2 = 0 to 63 do
      let before = [ (3, b1 land 7); (3, b1 lsr 3) ] in
      let after = [ (3, b2 land 7); (3, b2 lsr 3) ] in
      ignore (BP.simulate_ints ~config adder_c ~before ~after);
      incr count
    done
  done;
  let t_tool = Unix.gettimeofday () -. t0 in
  Format.printf "switch-level tool: %d vectors in %.2f s@." !count t_tool;
  (* time a sample of transistor-level runs, extrapolate *)
  let n_sample = if fast then 3 else 10 in
  let sp_cfg =
    { SR.default_config with SR.sleep = sleep_of t07 10.0; t_stop = 6e-9 }
  in
  let t1 = Unix.gettimeofday () in
  for i = 0 to n_sample - 1 do
    let v = (i * 709) land 63 in
    let before = [ (3, v land 7); (3, v lsr 3) ] in
    let after = [ (3, (v + 13) land 7); (3, ((v + 13) lsr 3) land 7) ] in
    ignore (SR.run_ints ~config:sp_cfg adder_c ~before ~after)
  done;
  let t_sp = Unix.gettimeofday () -. t1 in
  let t_sp_full = t_sp /. float_of_int n_sample *. 4096.0 in
  Format.printf
    "transistor level: %d sampled runs in %.2f s -> %.0f s extrapolated \
     for 4096@."
    n_sample t_sp t_sp_full;
  Format.printf "speedup: %.0fx (paper: ~1275x)@." (t_sp_full /. t_tool)

(* ---- ablations ---------------------------------------------------------------- *)

let ablations () =
  header "ABLATIONS: the modelling choices called out in DESIGN.md";

  Format.printf "@.[1] body effect of the bounced source (paper 2.1):@.";
  List.iter
    (fun be ->
      let m =
        Mtcmos.Sizing.delay_at
          ~ctx:Eval.Ctx.(default |> with_body_effect be)
          tree_c ~vectors:[ tree_vec ] ~wl:8.0
      in
      Format.printf "  body effect %-5b: delay %s, degradation %.1f%%@." be
        (eng ~unit:"s" m.Mtcmos.Sizing.mtcmos_delay)
        (100.0 *. m.Mtcmos.Sizing.degradation))
    [ true; false ];

  Format.printf "@.[2] velocity-saturation exponent alpha (paper 5.3):@.";
  List.iter
    (fun alpha ->
      let cfg =
        { (BP.mtcmos_config t07 ~wl:8.0) with BP.alpha = Some alpha }
      in
      let d = bp_delay ~config:cfg tree_c ~before:(fst tree_vec)
          ~after:(snd tree_vec) in
      Format.printf "  alpha %.1f: tree delay %s@." alpha (eng ~unit:"s" d))
    [ 1.3; 1.5; 1.8; 2.0 ];

  Format.printf
    "@.[3] virtual-ground parasitic capacitance (paper 2.2, transistor \
     level):@.";
  List.iter
    (fun cx ->
      let config =
        { SR.default_config with SR.sleep = sleep_of t07 8.0;
          cx_extra = cx; t_stop = 10e-9 }
      in
      let r = SR.run_ints ~config tree_c ~before:(fst tree_vec)
          ~after:(snd tree_vec) in
      let d = match SR.critical_delay r with Some (_, d) -> d | None -> nan in
      Format.printf "  Cx = %-8s: vx peak %-10s delay %s@."
        (eng ~unit:"F" cx)
        (eng ~unit:"V" (SR.vx_peak r))
        (eng ~unit:"s" d))
    [ 0.0; 1e-12; 5e-12; 20e-12 ];
  Format.printf
    "  (pF-scale capacitance is needed to dent the bounce -- resizing \
     the device is cheaper, as 2.2 argues)@.";

  Format.printf "@.[4] sleep device I-V vs linear-resistor model (fig 2):@.";
  let s8 = Device.Sleep.make t07.Device.Tech.sleep_nmos ~wl:8.0 ~vdd:1.2 in
  let r_eff = Device.Sleep.effective_resistance s8 in
  let d_dev =
    bp_delay
      ~config:{ BP.default_config with BP.sleep = BP.Sleep_fet s8 }
      tree_c ~before:(fst tree_vec) ~after:(snd tree_vec)
  in
  let d_res =
    bp_delay
      ~config:{ BP.default_config with BP.sleep = BP.Resistor r_eff }
      tree_c ~before:(fst tree_vec) ~after:(snd tree_vec)
  in
  Format.printf
    "  device I-V: %s; linear R_eff = %s: %s (%.1f%% apart)@."
    (eng ~unit:"s" d_dev)
    (eng ~unit:"ohm" r_eff)
    (eng ~unit:"s" d_res)
    (100.0 *. Float.abs ((d_res -. d_dev) /. d_dev));

  Format.printf "@.[5] reverse conduction (paper 2.3):@.";
  let base = BP.mtcmos_config t07 ~wl:8.0 in
  let d_off = bp_delay ~config:base tree_c ~before:(fst tree_vec)
      ~after:(snd tree_vec) in
  let d_on =
    bp_delay ~config:{ base with BP.reverse_conduction = true } tree_c
      ~before:(fst tree_vec) ~after:(snd tree_vec)
  in
  Format.printf
    "  off: %s; on (lows ride at vx, precharged rises): %s@."
    (eng ~unit:"s" d_off) (eng ~unit:"s" d_on);
  let r = BP.simulate_ints ~config:base tree_c ~before:(fst tree_vec)
      ~after:(snd tree_vec) in
  let a = Mtcmos.Reverse_conduction.assess t07 ~vx:(BP.vx_peak r) in
  Format.printf
    "  at the observed vx = %s: low outputs pinned at %s, remaining \
     low-side margin %s, logic failure: %b@."
    (eng ~unit:"V" (BP.vx_peak r))
    (eng ~unit:"V" a.Mtcmos.Reverse_conduction.v_low)
    (eng ~unit:"V" a.Mtcmos.Reverse_conduction.nm_low_remaining)
    a.Mtcmos.Reverse_conduction.logic_failure;

  Format.printf
    "@.[5b] the same effects inside the switch-level tool (cx and \
     input-slope options):@.";
  let base = BP.mtcmos_config t07 ~wl:8.0 in
  List.iter
    (fun (name, cfg) ->
      let r = BP.simulate_ints ~config:cfg tree_c ~before:(fst tree_vec)
          ~after:(snd tree_vec) in
      let d = match BP.critical_delay r with Some (_, d) -> d | None -> nan in
      Format.printf "  %-22s delay %-10s vx peak %s@." name
        (eng ~unit:"s" d)
        (eng ~unit:"V" (BP.vx_peak r)))
    [ ("quasi-static (paper)", base);
      ("cx = 1 pF", { base with BP.cx = 1e-12 });
      ("cx = 5 pF", { base with BP.cx = 5e-12 });
      ("input-slope corr.", { base with BP.input_slope = true }) ];

  Format.printf "@.[6] closed-form Eq. 5 vs numeric equilibrium:@.";
  let cfg2 =
    Mtcmos.Vground.config ~body_effect:false (Device.Tech.with_alpha t07 2.0)
  in
  let gates =
    List.init 9 (fun _ -> { Mtcmos.Vground.beta_wl = 1.5; vin = 1.2 })
  in
  let vx_n = Mtcmos.Vground.solve_resistor cfg2 ~r:r_eff gates in
  let vx_q = Mtcmos.Vground.solve_quadratic cfg2 ~r:r_eff gates in
  Format.printf "  brent: %s; quadratic: %s@." (eng ~unit:"V" vx_n)
    (eng ~unit:"V" vx_q);

  Format.printf "@.[7] MTCMOS standby-leakage payoff (fig 1 rationale):@.";
  let conv, mt =
    Device.Leakage.standby_comparison ~low_vt:t07.Device.Tech.nmos
      ~high_vt:t07.Device.Tech.sleep_nmos
      ~total_width_wl:(Mtcmos.Estimators.sum_of_widths tree_c)
      ~sleep_wl:8.0 ~vdd:1.2
  in
  Format.printf
    "  low-Vt block standby leakage %s -> gated %s (%.0fx reduction)@."
    (eng ~unit:"A" conv) (eng ~unit:"A" mt) (conv /. mt)

(* ---- design-space sweep (Vdd, Vt as the tool's design variables) --------------- *)

let design_space () =
  header
    "DESIGN SPACE: delay and required sleep size vs Vdd and Vt (the \
     tool's stated purpose)";
  Format.printf
    "paper 2.1: as Vdd scales down the sleep device's effective \
     resistance explodes,@.requiring even larger sleep transistors@.";
  Format.printf "@.Vdd sweep (0.7um card, tree, 10%% target):@.";
  Format.printf "  %-7s %-12s %-14s %-14s@." "Vdd" "cmos delay"
    "R_eff @ W/L=10" "W/L for 10%";
  List.iter
    (fun vdd ->
      let tech = Device.Tech.with_vdd t07 vdd in
      let tree = Circuits.Inverter_tree.make tech ~stages:3 ~fanout:3 in
      let c = tree.Circuits.Inverter_tree.circuit in
      let m = Mtcmos.Sizing.cmos_delay c ~vectors:[ tree_vec ] in
      let r_eff =
        Device.Sleep.effective_resistance
          (Device.Sleep.make tech.Device.Tech.sleep_nmos ~wl:10.0 ~vdd)
      in
      let wl =
        try
          Printf.sprintf "%.0f"
            (Mtcmos.Sizing.size_for_degradation c ~vectors:[ tree_vec ]
               ~target:0.10)
        with Not_found -> "infeasible"
      in
      Format.printf "  %-7.2f %-12s %-14s %-14s@." vdd (eng ~unit:"s" m)
        (eng ~unit:"ohm" r_eff) wl)
    [ 1.5; 1.35; 1.2; 1.05; 0.95; 0.85 ];
  Format.printf "@.across technology nodes (tree at each node's nominal \
                 Vdd, 10%% target):@.";
  List.iter
    (fun tech ->
      let tree = Circuits.Inverter_tree.make tech ~stages:3 ~fanout:3 in
      let c = tree.Circuits.Inverter_tree.circuit in
      let d0 = Mtcmos.Sizing.cmos_delay c ~vectors:[ tree_vec ] in
      let wl =
        try
          Printf.sprintf "%.0f"
            (Mtcmos.Sizing.size_for_degradation c ~vectors:[ tree_vec ]
               ~target:0.10)
        with Not_found -> "infeasible"
      in
      Format.printf "  %-16s vdd=%.2f  cmos %-10s W/L for 10%%: %s@."
        tech.Device.Tech.name tech.Device.Tech.vdd (eng ~unit:"s" d0) wl)
    [ t07; t03; Device.Tech.mtcmos_018um ];
  Format.printf
    "@.Vt sweep at Vdd = 1.2 (low-Vt threshold shifted, high-Vt fixed):@.";
  Format.printf "  %-7s %-12s %-12s@." "Vtn" "cmos delay" "W/L for 10%";
  List.iter
    (fun dv ->
      let tech = Device.Tech.with_vt_shift t07 dv in
      let tree = Circuits.Inverter_tree.make tech ~stages:3 ~fanout:3 in
      let c = tree.Circuits.Inverter_tree.circuit in
      let m = Mtcmos.Sizing.cmos_delay c ~vectors:[ tree_vec ] in
      let wl =
        try
          Printf.sprintf "%.0f"
            (Mtcmos.Sizing.size_for_degradation c ~vectors:[ tree_vec ]
               ~target:0.10)
        with Not_found -> "infeasible"
      in
      Format.printf "  %-7.2f %-12s %-12s@."
        (t07.Device.Tech.nmos.Device.Mosfet.vt0 +. dv)
        (eng ~unit:"s" m) wl)
    [ -0.1; -0.05; 0.0; 0.05; 0.1 ];
  Format.printf
    "  (lower logic Vt speeds the block, raising the current the sleep \
     device must carry)@."

(* ---- extensions beyond the paper ----------------------------------------------- *)

let extras ~fast () =
  header "EXTRAS: extension studies built on the reproduction";

  Format.printf
    "@.[A] static timing vs the vector-aware tool (the paper's 4 \
     critique):@.";
  let sta_mult = Mtcmos.Sta.analyze mult_c in
  let sta_delay = (Mtcmos.Sta.critical_path sta_mult).Mtcmos.Sta.arrival in
  Format.printf "  multiplier STA critical arrival: %s (vector-blind)@."
    (eng ~unit:"s" sta_delay);
  List.iter
    (fun (name, vec) ->
      let m = Mtcmos.Sizing.delay_at mult_c ~vectors:[ vec ] ~wl:60.0 in
      Format.printf
        "  vector %s at W/L=60: cmos %s, mtcmos %s -- STA cannot tell \
         these apart@."
        name
        (eng ~unit:"s" m.Mtcmos.Sizing.cmos_delay)
        (eng ~unit:"s" m.Mtcmos.Sizing.mtcmos_delay))
    [ ("A", mult_vec_a); ("B", mult_vec_b) ];
  let sleep8 = sleep_of t07 8.0 in
  let sta_tree = Mtcmos.Sta.analyze tree_c in
  let under =
    Mtcmos.Sta.mtcmos_underestimate sta_tree tree_c ~sleep:sleep8
      ~vectors:[ tree_vec ]
  in
  Format.printf "  tree at W/L=8: STA underestimates MTCMOS by %.0f%%@."
    (100.0 *. under);

  Format.printf
    "@.[B] hierarchical sleep devices (per-stage rails, follow-up-paper \
     direction):@.";
  let wl_shared =
    Mtcmos.Sizing.size_for_degradation tree_c ~vectors:[ tree_vec ]
      ~target:0.10
  in
  Format.printf "  shared device for 10%%: W/L = %.1f (total %.1f)@."
    wl_shared wl_shared;
  List.iter
    (fun blocks ->
      let wl_each =
        Mtcmos.Hierarchy.size_uniform_for_degradation tree_c
          ~vectors:[ tree_vec ] ~target:0.10 ~blocks
      in
      Format.printf
        "  %d per-level devices for 10%%: W/L = %.1f each (total %.1f)@."
        blocks wl_each (float_of_int blocks *. wl_each))
    [ 2; 3 ];
  Format.printf
    "  (the tree's stages discharge in disjoint time slots, so one \
     shared device time-multiplexes@.   them for free; naive \
     partitioning inflates total width -- mutual exclusion must be@.   \
     exploited the other way, by sharing)@.";

  Format.printf "@.[C] energy/area/delay trade-off of sleep sizing \
                 (adder):@.";
  Format.printf "  %-8s %-12s %-12s %-12s %-12s@." "W/L" "degradation"
    "toggle E" "area um^2" "break-even";
  List.iter
    (fun wl ->
      let m =
        Mtcmos.Sizing.delay_at adder_c
          ~vectors:[ adder_fig13_vec ] ~wl
      in
      let b = Mtcmos.Energy.budget adder_c ~wl in
      Format.printf "  %-8.0f %-12s %-12s %-12.3g %-12s@." wl
        (Printf.sprintf "%.1f%%" (100.0 *. m.Mtcmos.Sizing.degradation))
        (eng ~unit:"J" b.Mtcmos.Energy.sleep_toggle)
        (b.Mtcmos.Energy.area *. 1e12)
        (eng ~unit:"s"
           (Mtcmos.Energy.break_even_idle_time adder_c ~wl)))
    [ 5.0; 10.0; 20.0; 50.0; 100.0 ];

  (* glitch energy: steady-state counting vs the simulated waveforms *)
  let gl_vec = ([ (3, 1); (3, 5) ], [ (3, 6); (3, 5) ]) in
  let static =
    Mtcmos.Energy.switching_energy_of_transition adder_c
      ~before:(fst gl_vec) ~after:(snd gl_vec)
  in
  let r = BP.simulate_ints ~config:(BP.mtcmos_config t07 ~wl:20.0) adder_c
      ~before:(fst gl_vec) ~after:(snd gl_vec) in
  let dynamic = Mtcmos.Energy.switching_energy_of_result adder_c r in
  Format.printf
    "  glitch accounting on 1+5 -> 6+5: steady-state %s, waveform-based \
     %s (%.0f%% glitch overhead)@."
    (eng ~unit:"J" static) (eng ~unit:"J" dynamic)
    (100.0 *. ((dynamic /. Float.max 1e-30 static) -. 1.0));

  Format.printf "@.[D] wake-up latency vs sleep size (adder):@.";
  List.iter
    (fun wl ->
      let e = Mtcmos.Wakeup.estimate adder_c ~wl in
      let simulated =
        match Mtcmos.Wakeup.simulate adder_c ~wl with
        | t -> eng ~unit:"s" t
        | exception Not_found -> "(did not settle)"
      in
      Format.printf
        "  W/L=%-5.0f float %-8s analytic %-10s simulated %s@." wl
        (eng ~unit:"V" e.Mtcmos.Wakeup.v_float)
        (eng ~unit:"s" e.Mtcmos.Wakeup.analytic)
        simulated)
    [ 5.0; 20.0; 80.0 ];

  Format.printf
    "@.[G] stochastic worst-vector hunt on the 8x8 multiplier (2^32 \
     transitions):@.";
  let sleep60 = sleep_of t03 60.0 in
  let found =
    Mtcmos.Search.hill_climb ~seed:2
      ~restarts:(if fast then 2 else 5)
      ~max_iters:(if fast then 150 else 400)
      mult_c ~sleep:sleep60 ~widths:[ 8; 8 ] Mtcmos.Search.Max_degradation
  in
  let a60 =
    Mtcmos.Sizing.delay_at mult_c ~vectors:[ mult_vec_a ] ~wl:60.0
  in
  let fmt_pair (before, after) =
    let f g =
      String.concat "," (List.map (fun (_, v) -> string_of_int v) g)
    in
    Printf.sprintf "(%s)->(%s)" (f before) (f after)
  in
  Format.printf
    "  hill climb found %s at %.1f%% degradation in %d evaluations@."
    (fmt_pair found.Mtcmos.Search.pair)
    (100.0 *. found.Mtcmos.Search.score)
    found.Mtcmos.Search.evaluations;
  Format.printf
    "  the paper's hand-picked vector A gives %.1f%% -- the automated \
     hunt %s it@."
    (100.0 *. a60.Mtcmos.Sizing.degradation)
    (if found.Mtcmos.Search.score >= a60.Mtcmos.Sizing.degradation then
       "matches or beats"
     else "approaches");
  let found_delay =
    Mtcmos.Search.hill_climb ~seed:2 ~restarts:(if fast then 2 else 4)
      ~max_iters:(if fast then 150 else 300)
      mult_c ~sleep:sleep60 ~widths:[ 8; 8 ] Mtcmos.Search.Max_delay
  in
  Format.printf
    "  by absolute delay: hunt found %s with %s vs vector A's %s@."
    (fmt_pair found_delay.Mtcmos.Search.pair)
    (eng ~unit:"s" found_delay.Mtcmos.Search.score)
    (eng ~unit:"s" a60.Mtcmos.Sizing.mtcmos_delay);
  Format.printf
    "  (the ratio objective rewards glitchy low-baseline outputs, the \
     Fig. 14 tail effect)@.";

  Format.printf "@.[H] process variation at the chosen size (adder, \
                 W/L=20):@.";
  let stats =
    Mtcmos.Variation.monte_carlo ~n:(if fast then 40 else 200) adder_c
      ~wl:20.0 ~vector:adder_fig13_vec
  in
  Format.printf "  delay: %a@." Phys.Stats.pp_summary
    stats.Mtcmos.Variation.delay_summary;
  Format.printf "  vx:    %a@." Phys.Stats.pp_summary
    stats.Mtcmos.Variation.vx_summary;
  Format.printf
    "  p95 degradation vs nominal CMOS: %.1f%% (size margins \
     accordingly)@."
    (100.0 *. stats.Mtcmos.Variation.degradation_p95);

  Format.printf
    "@.[J] NMOS footer vs PMOS header (the paper's 1 preference):@.";
  Format.printf
    "  paper: \"the NMOS is preferable because it has a lower on \
     resistance and can be sized smaller\"@.";
  List.iter
    (fun wl ->
      let run cfg before after =
        let r = BP.simulate_ints ~config:cfg tree_c ~before ~after in
        ((match BP.critical_delay r with Some (_, d) -> d | None -> nan),
         BP.vx_peak r)
      in
      let d_n, v_n =
        run (BP.mtcmos_config t07 ~wl) (fst tree_vec) (snd tree_vec)
      in
      let d_p, v_p =
        run (BP.mtcmos_pmos_config t07 ~wl) (snd tree_vec) (fst tree_vec)
      in
      Format.printf
        "  W/L=%-5.0f footer: %-10s (bounce %-8s)  header: %-10s (droop \
         %-8s)  header/footer %.2f@."
        wl (eng ~unit:"s" d_n) (eng ~unit:"V" v_n) (eng ~unit:"s" d_p)
        (eng ~unit:"V" v_p) (d_p /. d_n))
    [ 8.0; 20.0; 40.0 ];

  Format.printf
    "@.[K] multi-cycle workload on the adder (64 random cycles, 2 ns \
     period, W/L = 10):@.";
  let workload = Mtcmos.Sequence.random_workload ~widths:[ 3; 3 ] 64 in
  let seq =
    Mtcmos.Sequence.run ~config:(BP.mtcmos_config t07 ~wl:10.0) adder_c
      ~period:2e-9 ~vectors:workload
  in
  (match seq.Mtcmos.Sequence.worst_delay with
   | Some (i, d) ->
     Format.printf "  worst cycle %d: delay %s; worst bounce %s; %d/%d \
                    period violations@."
       i (eng ~unit:"s" d)
       (eng ~unit:"V" seq.Mtcmos.Sequence.worst_vx)
       seq.Mtcmos.Sequence.violations
       (List.length seq.Mtcmos.Sequence.steps)
   | None -> Format.printf "  workload never switched an output@.");
  let tight =
    Mtcmos.Sequence.run ~config:(BP.mtcmos_config t07 ~wl:3.0) adder_c
      ~period:2e-9 ~vectors:workload
  in
  Format.printf
    "  undersized at W/L = 3: %d violations on the same workload@."
    tight.Mtcmos.Sequence.violations;

  Format.printf
    "@.[L] structure dependence: ripple vs Kogge-Stone 8-bit adders \
     (same function):@.";
  let rp = Circuits.Ripple_adder.make t07 ~bits:8 in
  let ks = Circuits.Kogge_stone.make t07 ~bits:8 in
  (* size each structure against its own hunted worst transition *)
  List.iter
    (fun (name, c) ->
      let hunt =
        Mtcmos.Search.hill_climb ~seed:4 ~restarts:3 ~max_iters:200 c
          ~sleep:(sleep_of t07 20.0) ~widths:[ 8; 8 ]
          Mtcmos.Search.Max_delay
      in
      let vec = hunt.Mtcmos.Search.pair in
      let falling =
        let s0 = Netlist.Logic_sim.eval_ints c (fst vec) in
        let s1 = Netlist.Logic_sim.eval_ints c (snd vec) in
        List.length (Netlist.Logic_sim.falling_gates c s0 s1)
      in
      let d0 = Mtcmos.Sizing.cmos_delay c ~vectors:[ vec ] in
      let wl =
        try
          Printf.sprintf "%.0f"
            (Mtcmos.Sizing.size_for_degradation c ~vectors:[ vec ]
               ~target:0.05)
        with Not_found -> "infeasible"
      in
      Format.printf
        "  %-12s %4d gates, %3d discharge on its worst vector, cmos \
         %-9s W/L for 5%%: %s@."
        name (Netlist.Circuit.num_gates c) falling (eng ~unit:"s" d0) wl)
    [ ("ripple", rp.Circuits.Ripple_adder.circuit);
      ("kogge-stone", ks.Circuits.Kogge_stone.circuit) ];
  Format.printf
    "  (the log-depth adder is faster but fires far more gates per \
     instant: its sleep@.   device must be proportionally larger -- \
     structure, not just function, sets the size)@.";

  Format.printf "@.[I] lint screens on the benchmark circuits:@.";
  List.iter
    (fun (name, c) ->
      let findings = Mtcmos.Lint.check ~hotspot_fraction:0.4 c in
      Format.printf "  %-12s %d finding(s)@." name (List.length findings);
      List.iter
        (fun f -> Format.printf "    %a@." Mtcmos.Lint.pp_finding f)
        findings)
    [ ("tree", tree_c); ("adder3", adder_c) ];

  if not fast then begin
    Format.printf
      "@.[E] characterisation-based calibration of the switch-level \
       tool:@.";
    let factor = Mtcmos.Characterize.calibration_factor t07 in
    Format.printf
      "  transistor-level/first-order inverter delay ratio: %.2f@."
      factor;
    Format.printf "  fig10 revisited with calibrated tool delays:@.";
    List.iter
      (fun wl ->
        let sp =
          Mtcmos.Sizing.delay_at ~ctx:Eval.Ctx.(default |> with_engine Eval.Spice_level) tree_c
            ~vectors:[ tree_vec ] ~wl
        in
        let bp =
          Mtcmos.Sizing.delay_at tree_c ~vectors:[ tree_vec ] ~wl
        in
        Format.printf
          "    W/L=%-4.0f spice %-10s calibrated tool %-10s (raw %.2f -> \
           calibrated %.2f)@."
          wl
          (eng ~unit:"s" sp.Mtcmos.Sizing.mtcmos_delay)
          (eng ~unit:"s" (factor *. bp.Mtcmos.Sizing.mtcmos_delay))
          (bp.Mtcmos.Sizing.mtcmos_delay /. sp.Mtcmos.Sizing.mtcmos_delay)
          (factor *. bp.Mtcmos.Sizing.mtcmos_delay
           /. sp.Mtcmos.Sizing.mtcmos_delay))
      [ 5.0; 11.0; 20.0 ];
    Format.printf "@.[F] gate-library characterisation (0.7um, 30 fF):@.";
    List.iter
      (fun kind ->
        match
          Mtcmos.Characterize.gate ~loads:[ 30e-15 ] ~ramps:[ 30e-12 ] t07
            kind
        with
        | [ p ] ->
          Format.printf "  %-10s %a@." (Netlist.Gate.name kind)
            Mtcmos.Characterize.pp_point p
        | _ -> ())
      [ Netlist.Gate.Inv; Netlist.Gate.Nand 2; Netlist.Gate.Nor 2;
        Netlist.Gate.Xor2; Netlist.Gate.Aoi21; Netlist.Gate.Carry_inv;
        Netlist.Gate.Sum_inv ];
    Format.printf
      "@.[M] NLDM table timing vs first-order STA vs both simulators \
       (3-bit adder):@.";
    let lib =
      Mtcmos.Nldm.characterize t07
        [ Netlist.Gate.Inv; Netlist.Gate.Carry_inv; Netlist.Gate.Sum_inv ]
    in
    let nldm = Mtcmos.Nldm.sta lib adder_c in
    let _, nldm_arrival = nldm.Mtcmos.Nldm.critical in
    let fo =
      (Mtcmos.Sta.critical_path (Mtcmos.Sta.analyze adder_c))
        .Mtcmos.Sta.arrival
    in
    (* compare the static bounds against the worst simulated vector *)
    let hunt =
      Mtcmos.Search.hill_climb ~seed:6 ~restarts:4 adder_c
        ~sleep:BP.Cmos ~widths:[ 3; 3 ] Mtcmos.Search.Max_delay
    in
    let sp =
      Mtcmos.Sizing.delay_at ~ctx:Eval.Ctx.(default |> with_engine Eval.Spice_level) adder_c
        ~vectors:[ hunt.Mtcmos.Search.pair ] ~wl:1000.0
    in
    Format.printf
      "  first-order STA %-10s NLDM STA %-10s | worst hunted vector: \
       switch-level %-10s transistor-level %s@."
      (eng ~unit:"s" fo)
      (eng ~unit:"s" nldm_arrival)
      (eng ~unit:"s" hunt.Mtcmos.Search.score)
      (eng ~unit:"s" sp.Mtcmos.Sizing.cmos_delay);
    Format.printf
      "  (the first-order timer underestimates the transistor-level \
       worst case; the@.   characterised table timer bounds it tightly \
       -- the slew and compound-gate@.   margin matters)@."
  end

(* ---- PAR: sequential vs parallel sweep/hunt ------------------------------------ *)

let par ~fast () =
  header "PAR: deterministic parallel sweep engine, sequential vs domains";
  let cores = Domain.recommended_domain_count () in
  (* at least 2 domains even on a single-core host, so the
     identical-output assertion always exercises the real parallel path *)
  let jobs = max 2 (Par.Pool.default_jobs ()) in
  Format.printf
    "available cores: %d; parallel runs use --jobs %d@." cores jobs;
  let time f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in
  (* identical-output assertions run at every core count; the >= 2x
     speedup assertion only where the acceptance criterion applies (a
     machine with at least 4 cores) -- on fewer cores the honest
     numbers are still printed *)
  let report name t_seq t_par equal =
    let speedup = t_seq /. t_par in
    Format.printf
      "{\"experiment\": \"par/%s\", \"jobs\": %d, \"t_seq_s\": %.3f, \
       \"t_par_s\": %.3f, \"speedup\": %.2f, \"identical\": %b}@."
      name jobs t_seq t_par speedup equal;
    if not equal then begin
      Format.eprintf "par/%s: parallel result differs from sequential@." name;
      exit 1
    end;
    if cores >= 4 && jobs >= 4 && speedup < 2.0 then begin
      Format.eprintf
        "par/%s: speedup %.2fx < 2x at --jobs %d on a %d-core host@." name
        speedup jobs cores;
      exit 1
    end
  in
  (* W/L sweep of the 8x8 multiplier over both paper vectors *)
  let wls =
    if fast then [ 30.0; 60.0; 100.0; 170.0; 300.0; 500.0 ]
    else [ 20.0; 30.0; 45.0; 60.0; 80.0; 100.0; 130.0; 170.0; 220.0;
           300.0; 400.0; 500.0 ]
  in
  let vectors = [ mult_vec_a; mult_vec_b ] in
  let sweep j () =
    Mtcmos.Sizing.sweep ~ctx:Eval.Ctx.(default |> with_jobs j) mult_c
      ~vectors ~wls
  in
  let ms_seq, t_seq = time (sweep 1) in
  let ms_par, t_par = time (sweep jobs) in
  report "sizing-sweep-mult8" t_seq t_par (ms_seq = ms_par);
  (* worst-vector hunt on the same multiplier *)
  let sleep60 = sleep_of t03 60.0 in
  let hunt j () =
    Mtcmos.Search.hill_climb ~seed:2 ~restarts:(if fast then 4 else 8)
      ~max_iters:(if fast then 100 else 250)
      ~ctx:Eval.Ctx.(default |> with_jobs j)
      mult_c ~sleep:sleep60 ~widths:[ 8; 8 ] Mtcmos.Search.Max_degradation
  in
  let h_seq, ht_seq = time (hunt 1) in
  let h_par, ht_par = time (hunt jobs) in
  report "search-hunt-mult8" ht_seq ht_par (h_seq = h_par);
  Format.printf
    "hunt found score %.4g in %d evaluations (same at --jobs 1 and \
     --jobs %d)@."
    h_par.Mtcmos.Search.score h_par.Mtcmos.Search.evaluations jobs

(* ---- CACHE: content-addressed evaluation cache, cold vs warm ------------------- *)

let cache_exp ~fast () =
  header "CACHE: evaluation cache, cold vs warm repeated sizing sweeps";
  Format.printf
    "a warm repeat of an identical sweep must return bit-identical \
     measurements at >= 3x the cold speed@.";
  let time f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in
  let check name ~engine c ~vectors ~wls =
    let run ctx () = Mtcmos.Sizing.sweep ~ctx c ~vectors ~wls in
    let base = Eval.Ctx.with_engine engine Eval.Ctx.default in
    (* reference: no cache at all *)
    let off, _ = time (run base) in
    let cache = Eval.Cache.create () in
    let ctx = Eval.Ctx.with_cache cache base in
    let cold, t_cold = time (run ctx) in
    let warm, t_warm = time (run ctx) in
    let k = Eval.Cache.counters cache in
    (* compare (not =): NaN fields must still count as identical *)
    let identical = compare cold off = 0 && compare warm off = 0 in
    let speedup = t_cold /. Float.max 1e-9 t_warm in
    Format.printf
      "{\"experiment\": \"cache/%s\", \"t_cold_s\": %.4f, \"t_warm_s\": \
       %.4f, \"speedup\": %.1f, \"identical\": %b, \"hits\": %d, \
       \"misses\": %d}@."
      name t_cold t_warm speedup identical k.Eval.Cache.hits
      k.Eval.Cache.misses;
    if not identical then begin
      Format.eprintf "cache/%s: cached sweep differs from uncached@." name;
      exit 1
    end;
    if k.Eval.Cache.hits = 0 then begin
      Format.eprintf "cache/%s: warm run never hit the cache@." name;
      exit 1
    end;
    if speedup < 3.0 then begin
      Format.eprintf "cache/%s: warm speedup %.1fx < 3x@." name speedup;
      exit 1
    end
  in
  let chain = Circuits.Chain.inverter_chain t07 ~length:8 in
  check "sweep-chain-spice" ~engine:Eval.Spice_level
    chain.Circuits.Chain.circuit
    ~vectors:[ ([ (1, 0) ], [ (1, 1) ]); ([ (1, 1) ], [ (1, 0) ]) ]
    ~wls:(if fast then [ 5.0; 20.0 ] else [ 2.0; 5.0; 10.0; 20.0; 50.0 ]);
  (* the breakpoint engine is fast, so the workload must be big enough
     that simulation (not sweep bookkeeping) dominates the cold run *)
  let adder8 = Circuits.Ripple_adder.make t07 ~bits:8 in
  let vectors =
    List.init 32 (fun i ->
        let a = (i * 37) land 255 and b = (i * 101) land 255 in
        ([ (8, a); (8, b) ], [ (8, 255 - a); (8, b lxor 170) ]))
  in
  check "sweep-adder8-bp" ~engine:Eval.Breakpoint
    adder8.Circuits.Ripple_adder.circuit ~vectors
    ~wls:[ 2.0; 4.0; 6.0; 10.0; 16.0; 25.0; 40.0; 80.0 ]

(* ---- RUNNER: batch engine, shared-cache warmup, resume identity ---------- *)

let runner_exp ~fast () =
  header "RUNNER: batch engine, shared-cache warmup, resume identity";
  Format.printf
    "a warm re-run of a batch through the shared evaluation cache must \
     produce a byte-identical manifest at >= 3x the cold speed; the \
     manifest must not move with --jobs, and an interrupted run resumed \
     from its journal must match an uninterrupted one byte for byte@.";
  (* the cache_exp workloads, spelled as a job file: the spice chain-8
     sweep and the 32-vector bp adder-8 sweep *)
  let vecs =
    List.init 32 (fun i ->
        let a = (i * 37) land 255 and b = (i * 101) land 255 in
        Printf.sprintf "\"%d,%d->%d,%d\"" a b (255 - a) (b lxor 170))
  in
  let src =
    Printf.sprintf
      "(batch (tech 07um)\n\
      \  (circuit ch chain) (circuit a8 adder8)\n\
      \  (job sweep sp (circuit ch) (engine spice) (wls %s)\n\
      \    (vectors \"0->1\" \"1->0\"))\n\
      \  (job sweep bp (circuit a8) (engine bp)\n\
      \    (wls 2 4 6 10 16 25 40 80) (vectors %s)))"
      (if fast then "5 20" else "2 5 10 20 50")
      (String.concat " " vecs)
  in
  let spec =
    match Runner.Spec.parse_string src with
    | Ok s -> s
    | Error e ->
      Format.eprintf "runner: bad spec: %s@." e;
      exit 1
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in
  let run ?journal ?fresh ?stop_after ctx () =
    match Runner.run ~ctx ?journal ?fresh ?stop_after spec with
    | Ok o -> o
    | Error e ->
      Format.eprintf "runner: %s@." e;
      exit 1
  in
  let cache = Eval.Cache.create () in
  let ctx = Eval.Ctx.with_cache cache Eval.Ctx.default in
  let cold, t_cold = time (run ctx) in
  let warm, t_warm = time (run ctx) in
  let speedup = t_cold /. Float.max 1e-9 t_warm in
  let warm_identical = String.equal cold.Runner.manifest warm.Runner.manifest in
  (* the manifest is --jobs-invariant (fresh cache so work really runs) *)
  let j4 =
    run (Eval.Ctx.with_jobs 4 (Eval.Ctx.with_cache (Eval.Cache.create ())
           Eval.Ctx.default)) ()
  in
  let jobs_invariant = String.equal cold.Runner.manifest j4.Runner.manifest in
  (* interrupt after the first job, resume from the journal *)
  let journal = Filename.temp_file "mtsize-bench" ".journal" in
  let interrupted = run ~journal ~fresh:true ~stop_after:1 ctx () in
  let resumed = run ~journal ctx () in
  Sys.remove journal;
  let resume_identical =
    String.equal cold.Runner.manifest resumed.Runner.manifest
  in
  Format.printf
    "{\"experiment\": \"runner/batch\", \"t_cold_s\": %.4f, \"t_warm_s\": \
     %.4f, \"speedup\": %.1f, \"warm_identical\": %b, \"jobs_invariant\": \
     %b, \"resumed_jobs\": %d, \"resume_identical\": %b}@."
    t_cold t_warm speedup warm_identical jobs_invariant
    interrupted.Runner.executed resume_identical;
  if not warm_identical then begin
    Format.eprintf "runner: warm manifest differs from cold@.";
    exit 1
  end;
  if not jobs_invariant then begin
    Format.eprintf "runner: manifest moved with --jobs@.";
    exit 1
  end;
  if not resume_identical then begin
    Format.eprintf "runner: resumed manifest differs from uninterrupted@.";
    exit 1
  end;
  if interrupted.Runner.executed <> 1 || not interrupted.Runner.interrupted
  then begin
    Format.eprintf "runner: stop_after did not interrupt after one job@.";
    exit 1
  end;
  if resumed.Runner.replayed <> 1 then begin
    Format.eprintf "runner: resume re-ran a journaled job@.";
    exit 1
  end;
  if speedup < 3.0 then begin
    Format.eprintf "runner: warm batch speedup %.1fx < 3x@." speedup;
    exit 1
  end

(* ---- OBS: observability overhead, identical output, trace validity ------------- *)

let obs_exp ~fast () =
  header "OBS: observability layer, overhead gate and trace validation";
  Format.printf
    "fully-enabled observability (metrics + tracing) must cost < 5%% \
     over the default disabled path on the same workloads, return \
     bit-identical measurements, and emit a trace that passes the \
     trace-check validator@.";
  (* best-of-3 so one scheduler hiccup does not fail the gate; the
     disabled run is exactly what a PR-3-era caller gets (the no-op
     handle), so the measured on-vs-off gap upper-bounds what the
     instrumentation added to the uninstrumented baseline *)
  let best_of_3 f =
    let time () =
      let t0 = Unix.gettimeofday () in
      let v = f () in
      (v, Unix.gettimeofday () -. t0)
    in
    let v, t1 = time () in
    let _, t2 = time () in
    let _, t3 = time () in
    (v, Float.min t1 (Float.min t2 t3))
  in
  let dump_last = ref "" in
  let check name ~engine c ~vectors ~wls =
    (* no cache: every point re-simulates, so the timing compares the
       instrumented hot paths themselves *)
    let run ctx () = Mtcmos.Sizing.sweep ~ctx c ~vectors ~wls in
    let base = Eval.Ctx.with_engine engine Eval.Ctx.default in
    let off, t_off = best_of_3 (run base) in
    let obs = Obs.create ~trace:true () in
    let on_res, t_on = best_of_3 (run (Eval.Ctx.with_obs obs base)) in
    let overhead = 100.0 *. (t_on -. t_off) /. Float.max 1e-9 t_off in
    (* compare (not =): NaN fields must still count as identical *)
    let identical = compare off on_res = 0 in
    let trace_file = Filename.temp_file ("obs-" ^ name) ".json" in
    Obs.write_trace obs trace_file;
    let trace_ok =
      match Obs.Trace.validate_file trace_file with
      | Ok _ -> true
      | Error msgs ->
        List.iter (fun m -> Format.eprintf "obs/%s: %s@." name m) msgs;
        false
    in
    Sys.remove trace_file;
    dump_last := Obs.metrics_jsonl obs;
    Format.printf
      "{\"experiment\": \"obs/%s\", \"t_off_s\": %.4f, \"t_on_s\": %.4f, \
       \"overhead_pct\": %.2f, \"identical\": %b, \"trace_ok\": %b}@."
      name t_off t_on overhead identical trace_ok;
    if not identical then begin
      Format.eprintf "obs/%s: observed run differs from disabled run@." name;
      exit 1
    end;
    if not trace_ok then begin
      Format.eprintf "obs/%s: emitted trace failed validation@." name;
      exit 1
    end;
    if overhead > 5.0 then begin
      Format.eprintf "obs/%s: overhead %.2f%% > 5%%@." name overhead;
      exit 1
    end
  in
  let chain = Circuits.Chain.inverter_chain t07 ~length:8 in
  let chain_vectors = [ ([ (1, 0) ], [ (1, 1) ]); ([ (1, 1) ], [ (1, 0) ]) ] in
  let chain_wls =
    if fast then [ 5.0; 20.0 ] else [ 2.0; 5.0; 10.0; 20.0; 50.0 ]
  in
  check "sweep-chain-spice" ~engine:Eval.Spice_level
    chain.Circuits.Chain.circuit ~vectors:chain_vectors ~wls:chain_wls;
  let adder8 = Circuits.Ripple_adder.make t07 ~bits:8 in
  let vectors =
    List.init (if fast then 16 else 32) (fun i ->
        let a = (i * 37) land 255 and b = (i * 101) land 255 in
        ([ (8, a); (8, b) ], [ (8, 255 - a); (8, b lxor 170) ]))
  in
  check "sweep-adder8-bp" ~engine:Eval.Breakpoint
    adder8.Circuits.Ripple_adder.circuit ~vectors
    ~wls:[ 2.0; 4.0; 6.0; 10.0; 16.0; 25.0; 40.0; 80.0 ];
  Format.printf "metrics registry after the adder8 run:@.%s" !dump_last;
  (* the profile is a pure post-run pass over the span sink, so
     --profile must cost < 2% over an otherwise identical traced run *)
  let run_chain ctx () =
    Mtcmos.Sizing.sweep ~ctx chain.Circuits.Chain.circuit
      ~vectors:chain_vectors ~wls:chain_wls
  in
  let base = Eval.Ctx.with_engine Eval.Spice_level Eval.Ctx.default in
  let traced () =
    let obs = Obs.create ~trace:true () in
    ignore (run_chain (Eval.Ctx.with_obs obs base) ());
    obs
  in
  let _, t_trace = best_of_3 traced in
  let _, t_prof =
    best_of_3 (fun () ->
        Obs.Prof.to_collapsed (Obs.profile (traced ())))
  in
  let prof_overhead =
    100.0 *. (t_prof -. t_trace) /. Float.max 1e-9 t_trace
  in
  Format.printf
    "{\"experiment\": \"obs/profiler\", \"t_trace_s\": %.4f, \
     \"t_profile_s\": %.4f, \"overhead_pct\": %.2f}@."
    t_trace t_prof prof_overhead;
  if prof_overhead > 2.0 then begin
    Format.eprintf "obs/profiler: overhead %.2f%% > 2%%@." prof_overhead;
    exit 1
  end;
  (* the disabled handle threaded through a full run must stay silent:
     no metrics, no spans, an empty profile *)
  let off = Obs.disabled in
  ignore (run_chain (Eval.Ctx.with_obs off base) ());
  let prof = Obs.profile off in
  let silent =
    String.equal (Obs.metrics_jsonl off) ""
    && Obs.Prof.paths prof = []
    && String.equal (Obs.Prof.to_collapsed prof) ""
  in
  Format.printf "{\"experiment\": \"obs/disabled\", \"silent\": %b}@." silent;
  if not silent then begin
    Format.eprintf "obs/disabled: disabled handle emitted events@.";
    exit 1
  end

(* ---- SERVE: sharded-cache contention under concurrent clients ------------------ *)

let serve_exp ~fast () =
  header "SERVE: sharded evaluation cache under concurrent clients";
  Format.printf
    "the daemon funnels every request through one shared evaluation \
     cache; eight concurrent clients hammering it must reach >= 2x the \
     aggregate throughput on the 16-shard lock-striped table versus \
     the single-mutex table, and every hit must return exactly the \
     floats its miss stored@.";
  let clients = 8 in
  let keyspace = 1024 in
  let ops = if fast then 30_000 else 150_000 in
  (* precomputed keys and values: the per-op work is the cache call
     itself, so the timing compares lock contention, not sprintf; the
     leading byte varies so keys stripe across shards like real
     digests *)
  let keys =
    Array.init keyspace (fun i ->
        Printf.sprintf "%c/serve-bench/%04d"
          (Char.chr ((i * 131) land 255))
          i)
  in
  let vals =
    Array.init keyspace (fun i ->
        [| (float_of_int i *. 1.5) +. 0.25; float_of_int (i land 7) |])
  in
  let workload cache c () =
    (* each client walks the shared keyspace from its own offset so the
       fleet is never in lock step on one shard *)
    let bad = ref 0 in
    for n = 0 to ops - 1 do
      let i = (n + (c * 131)) mod keyspace in
      match Eval.Cache.find cache keys.(i) with
      | Some e ->
        if
          Array.length e.Eval.Cache.floats <> 2
          || e.Eval.Cache.floats.(0) <> vals.(i).(0)
        then incr bad
      | None ->
        Eval.Cache.store cache keys.(i)
          { Eval.Cache.floats = vals.(i); stats = None }
    done;
    !bad
  in
  let fleet cache =
    let t0 = Unix.gettimeofday () in
    let ds = List.init clients (fun c -> Domain.spawn (workload cache c)) in
    let bad = List.fold_left (fun a d -> a + Domain.join d) 0 ds in
    (bad, Unix.gettimeofday () -. t0)
  in
  (* best-of-3 so one scheduler hiccup does not fail the gate; the
     cache persists across repeats, so repeats run all-hits — the
     daemon's steady state *)
  let best shards =
    let cache = Eval.Cache.create ~shards () in
    let rec go best bad_total k =
      if k = 0 then (cache, bad_total, best)
      else
        let bad, t = fleet cache in
        go (Float.min best t) (bad_total + bad) (k - 1)
    in
    go infinity 0 3
  in
  let c1, bad1, t1 = best 1 in
  let c16, bad16, t16 = best 16 in
  let total_ops = 3 * clients * ops in
  let accounted c =
    let k = Eval.Cache.counters c in
    k.Eval.Cache.hits + k.Eval.Cache.misses = total_ops
  in
  let speedup = t1 /. Float.max 1e-9 t16 in
  let cores = Domain.recommended_domain_count () in
  Format.printf
    "{\"experiment\": \"serve/cache-contention\", \"clients\": %d, \
     \"ops_per_client\": %d, \"t_single_s\": %.4f, \"t_sharded_s\": \
     %.4f, \"speedup\": %.2f, \"lookups_ok\": %b, \"cores\": %d}@."
    clients ops t1 t16 speedup
    (bad1 = 0 && bad16 = 0)
    cores;
  if bad1 > 0 || bad16 > 0 then begin
    Format.eprintf "serve: %d lookups returned foreign floats@."
      (bad1 + bad16);
    exit 1
  end;
  if not (accounted c1 && accounted c16) then begin
    Format.eprintf "serve: merged hit+miss counters do not sum to %d@."
      total_ops;
    exit 1
  end;
  if cores >= 4 && speedup < 2.0 then begin
    Format.eprintf
      "serve: sharded cache only %.2fx the single lock at %d clients \
       (gate: 2x)@."
      speedup clients;
    exit 1
  end

(* ---- SCALE: event-driven core vs dense passes on 10k+-gate circuits ------------ *)

let scale_exp ~fast () =
  header
    "SCALE: event-driven switch-level core vs dense whole-netlist passes";
  Format.printf
    "per vector step: dense = one full Logic_sim.eval plus \
     switched/falling scans; event = one Event_sim.step touching only \
     dirty gates.  Totals must be identical; >= 10k-gate circuits must \
     show >= 5x.@.";
  let time f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in
  let module L = Netlist.Logic_sim in
  let module E = Netlist.Event_sim in
  let check name c =
    let inputs = Array.length (Netlist.Circuit.inputs c) in
    let gates = Netlist.Circuit.num_gates c in
    let steps = if fast then 200 else 400 in
    let st = Random.State.make [| 19 |] in
    (* a realistic step sequence: mostly small perturbations (2 flips),
       with a half-the-inputs burst every 16th step so the worklist also
       sees wide events *)
    let vecs = Array.make (steps + 1) [||] in
    vecs.(0) <-
      Array.init inputs (fun _ -> S.of_bool (Random.State.bool st));
    for i = 1 to steps do
      let v = Array.copy vecs.(i - 1) in
      let flips = if i mod 16 = 0 then max 1 (inputs / 2) else 2 in
      for _ = 1 to flips do
        let k = Random.State.int st inputs in
        v.(k) <- (match v.(k) with S.L1 -> S.L0 | S.L0 | S.X -> S.L1)
      done;
      vecs.(i) <- v
    done;
    let dense () =
      let prev = ref (L.eval c vecs.(0)) in
      let sw = ref 0 and fall = ref 0 in
      for i = 1 to steps do
        let s = L.eval c vecs.(i) in
        sw := !sw + List.length (L.switched_gates c !prev s);
        fall := !fall + List.length (L.falling_gates c !prev s);
        prev := s
      done;
      (!sw, !fall, !prev)
    in
    let es = E.of_circuit c in
    let event () =
      let state = ref (E.init es vecs.(0)) in
      let sw = ref 0 and fall = ref 0 and touched = ref 0 in
      for i = 1 to steps do
        let m = E.step es !state vecs.(i) in
        sw := !sw + E.activity es m;
        fall := !fall + List.length (E.falling_gates es m);
        touched := !touched + List.length m.E.touched;
        state := m.E.post
      done;
      (!sw, !fall, !touched, !state)
    in
    let (d_sw, d_fall, d_final), t_dense = time dense in
    let (e_sw, e_fall, e_touched, e_final), t_event = time event in
    let identical =
      d_sw = e_sw && d_fall = e_fall
      && Array.for_all2 S.equal d_final (E.levels es e_final)
    in
    let speedup = t_dense /. Float.max 1e-9 t_event in
    let touched_frac =
      float_of_int e_touched /. float_of_int (steps * gates)
    in
    Format.printf
      "{\"experiment\": \"scale/%s\", \"gates\": %d, \"steps\": %d, \
       \"activity\": %d, \"falling\": %d, \"touched_frac\": %.4f, \
       \"t_dense_s\": %.3f, \"t_event_s\": %.3f, \"speedup\": %.1f, \
       \"identical\": %b}@."
      name gates steps d_sw d_fall touched_frac t_dense t_event speedup
      identical;
    if not identical then begin
      Format.eprintf
        "scale/%s: event-driven totals differ from dense (activity %d \
         vs %d, falling %d vs %d)@."
        name e_sw d_sw e_fall d_fall;
      exit 1
    end;
    if gates >= 10_000 && speedup < 5.0 then begin
      Format.eprintf "scale/%s: speedup %.1fx < 5x at %d gates@." name
        speedup gates;
      exit 1
    end
  in
  let ks = Circuits.Kogge_stone.make t07 ~bits:128 in
  check "kogge-stone-128" ks.Circuits.Kogge_stone.circuit;
  let mu = Circuits.Csa_multiplier.make t07 ~bits:16 in
  check "csa-mult-16" mu.Circuits.Csa_multiplier.circuit;
  let cloud g =
    (Circuits.Random_logic.make ~seed:3 t07 ~inputs:64 ~gates:g)
      .Circuits.Random_logic.circuit
  in
  check "random-cloud-12k" (cloud 12_000);
  if not fast then begin
    check "random-cloud-50k" (cloud 50_000);
    check "random-cloud-100k" (cloud 100_000)
  end

(* ---- SPEED: fast transient path (chain reduction + latency bypass) ------------- *)

let speed_exp ~fast () =
  header "SPEED: fast transient path vs the unreduced engine";
  Format.printf
    "deck 1: explicit series-RC ladder, `Reduce eliminates the chain \
     interior exactly; deck 2: sleep-gated ripple adder through \
     Spice_ref, `Reduce_bypass adds the quiescent-device bypass and \
     LTE stepping.  Gates: fast modes inside their bands, >= 5x \
     wall-clock on both decks.@.";
  let module T = Netlist.Transistor in
  let module E = Spice.Engine in
  (* best-of-2 so one scheduler hiccup does not fail a wall-clock gate *)
  let time f =
    let once () =
      let t0 = Unix.gettimeofday () in
      let v = f () in
      (v, Unix.gettimeofday () -. t0)
    in
    let v, t1 = once () in
    let _, t2 = once () in
    (v, Float.min t1 t2)
  in
  (* --- deck 1: RC ladder, `Off vs `Reduce ------------------------------ *)
  let segments = if fast then 300 else 600 in
  let r = 1000.0 and c = 1e-13 in
  let b = T.builder () in
  let src = T.node ~name:"src" b in
  T.add b
    (T.Vsrc
       { pos = src; neg = T.ground;
         wave = Phys.Pwl.create [ (0.0, 0.0); (1e-11, 1.0) ] });
  let nodes =
    Array.init segments (fun i -> T.node ~name:(Printf.sprintf "n%d" i) b)
  in
  Array.iteri
    (fun i n ->
      let prev = if i = 0 then src else nodes.(i - 1) in
      T.add b (T.Res { pos = prev; neg = n; r });
      T.add b (T.Cap { pos = n; neg = T.ground; c }))
    nodes;
  let netlist = T.freeze b in
  let probe = nodes.(segments - 1) in
  let tau = r *. c in
  let t_stop = 6.0 *. tau *. float_of_int segments /. 10.0 in
  let dt = tau /. 2.0 in
  let run_ladder mode =
    let eng =
      E.prepare
        ~opts:
          E.Opts.(
            default |> with_fast mode |> with_dt dt
            |> with_record (E.Nodes [ probe ]))
        netlist
    in
    match E.transient_r eng ~t_stop with
    | Ok res -> res
    | Error f ->
      Format.eprintf "speed/ladder (%s): %s@." (E.Opts.fast_to_string mode)
        (Spice.Diag.failure_to_string f);
      exit 1
  in
  let res_off, t_off = time (fun () -> run_ladder `Off) in
  let res_red, t_red = time (fun () -> run_ladder `Reduce) in
  let ladder_dev =
    let w0 = E.waveform res_off probe and w1 = E.waveform res_red probe in
    Array.fold_left
      (fun acc (t, v0) ->
        Float.max acc (Float.abs (Phys.Pwl.value_at w1 t -. v0)))
      0.0
      (Phys.Pwl.sample w0 ~t0:0.0 ~t1:t_stop ~n:256)
  in
  let ladder_speedup = t_off /. Float.max 1e-9 t_red in
  Format.printf
    "{\"experiment\": \"speed/rc-ladder\", \"segments\": %d, \"steps\": \
     %d, \"t_off_s\": %.3f, \"t_reduce_s\": %.3f, \"speedup\": %.1f, \
     \"max_dev_v\": %.3e}@."
    segments (E.steps_taken res_off) t_off t_red ladder_speedup ladder_dev;
  (* --- deck 2: sleep-gated ripple adder, `Off vs `Reduce_bypass -------- *)
  let bits = if fast then 4 else 8 in
  let add = Circuits.Ripple_adder.make t07 ~bits in
  let ac = add.Circuits.Ripple_adder.circuit in
  let vec_lo = [ (bits, 0); (bits, 0) ] in
  let vec_hi = [ (bits, (1 lsl bits) - 1); (bits, 1) ] in
  let run_adder mode =
    let config =
      { SR.default_config with SR.sleep = sleep_of t07 12.0; fast = mode }
    in
    SR.run_ints ~config ac ~before:vec_lo ~after:vec_hi
  in
  let run0, t_a_off = time (fun () -> run_adder `Off) in
  let run1, t_a_fb = time (fun () -> run_adder `Reduce_bypass) in
  (* calibrated band: 120 mV (10 % of the 1.2 V rail) inside a +-25 ps
     time tube — a coarser LTE step placement shifts a full-rail edge
     by a few ps, which a purely vertical band would misread as a
     volt-scale error; measured worst case on this deck is ~90 mV, on
     the slow sleep-gated settling edge *)
  let v_band = 0.12 and t_tube = 25e-12 in
  let d_band_rel = 0.10 and d_band_abs = 20e-12 in
  let tube_dev w0 w1 =
    Array.fold_left
      (fun (acc, at) (t, v0) ->
        let best = ref infinity in
        for k = -4 to 4 do
          let t' = t +. (float_of_int k /. 4.0 *. t_tube) in
          best :=
            Float.min !best (Float.abs (Phys.Pwl.value_at w1 t' -. v0))
        done;
        if !best > acc then (!best, t) else (acc, at))
      (0.0, 0.0)
      (Phys.Pwl.sample w0 ~t0:0.0 ~t1:SR.default_config.SR.t_stop ~n:128)
  in
  let adder_dev, worst_net, worst_t =
    Array.fold_left
      (fun (acc, wn, wt) net ->
        let d, t =
          tube_dev (SR.net_waveform run0 net) (SR.net_waveform run1 net)
        in
        if d > acc then (d, net, t) else (acc, wn, wt))
      (0.0, -1, 0.0)
      (Netlist.Circuit.outputs ac)
  in
  let delay_drift =
    match (SR.critical_delay run0, SR.critical_delay run1) with
    | Some (_, d0), Some (_, d1) ->
      Float.abs (d1 -. d0) /. Float.max d_band_abs (d_band_rel *. d0)
    | None, None -> 0.0
    | Some _, None | None, Some _ -> infinity
  in
  let adder_speedup = t_a_off /. Float.max 1e-9 t_a_fb in
  Format.printf
    "{\"experiment\": \"speed/sleep-adder%d\", \"t_off_s\": %.3f, \
     \"t_bypass_s\": %.3f, \"speedup\": %.1f, \"newton_off\": %d, \
     \"newton_bypass\": %d, \"max_dev_v\": %.4f, \"worst_net\": %d, \
     \"worst_t_s\": %.3e, \"delay_drift_frac\": %.2f}@."
    bits t_a_off t_a_fb adder_speedup
    (SR.newton_iterations run0)
    (SR.newton_iterations run1)
    adder_dev worst_net worst_t delay_drift;
  (* --- gates ----------------------------------------------------------- *)
  if ladder_dev > 1e-6 then begin
    Format.eprintf "speed: ladder reduction deviates %.3e V (> 1e-6)@."
      ladder_dev;
    exit 1
  end;
  if adder_dev > v_band then begin
    Format.eprintf "speed: bypass deviates %.4f V (> %.2f band)@."
      adder_dev v_band;
    exit 1
  end;
  if delay_drift > 1.0 then begin
    Format.eprintf "speed: bypass critical delay outside its band@.";
    exit 1
  end;
  if ladder_speedup < 5.0 then begin
    Format.eprintf "speed: rc-ladder speedup %.1fx < 5x@." ladder_speedup;
    exit 1
  end;
  if adder_speedup < 5.0 then begin
    Format.eprintf "speed: sleep-adder speedup %.1fx < 5x@." adder_speedup;
    exit 1
  end

(* ---- selective Vt + clustering gate --------------------------------------------- *)

(* paper 2 baseline: one shared sleep device sized by the
   sum-of-internal-widths rule, its standby leakage given by the same
   subthreshold card the optimizer prices itself with *)
let single_device_leak tech circuit ~sleep_wl =
  snd
    (Device.Leakage.standby_comparison ~low_vt:tech.Device.Tech.nmos
       ~high_vt:tech.Device.Tech.sleep_nmos
       ~total_width_wl:(Netlist.Circuit.total_pulldown_wl circuit)
       ~sleep_wl ~vdd:tech.Device.Tech.vdd)

let select_exp ~fast () =
  header
    "SELECT: slack-driven Vt assignment + sleep clustering vs the paper's \
     single shared device";
  Format.printf
    "gate: selective co-optimization must cut standby leakage >= 2x \
     against the sum-of-widths@.shared device at the same 10%% delay \
     budget; the answer must be bit-identical across jobs@.";
  let signature (r : Mtcmos.Selective.result) =
    ( r.Mtcmos.Selective.leakage, r.Mtcmos.Selective.arrival,
      Array.to_list r.Mtcmos.Selective.vt_high,
      Array.to_list r.Mtcmos.Selective.sleep_wl,
      Array.to_list r.Mtcmos.Selective.cluster_of_gate,
      r.Mtcmos.Selective.evaluations )
  in
  let run ~name circuit ~clusters ~max_passes ~jobs =
    let tech = Netlist.Circuit.tech circuit in
    let w_paper = Netlist.Circuit.total_pulldown_wl circuit in
    let leak_paper = single_device_leak tech circuit ~sleep_wl:w_paper in
    let ctx = Eval.Ctx.(default |> with_jobs jobs) in
    let t0 = Unix.gettimeofday () in
    let r =
      Mtcmos.Selective.optimize ~ctx ~clusters ~max_passes circuit
        ~delay_budget:0.10
    in
    let dt = Unix.gettimeofday () -. t0 in
    let low =
      Array.fold_left (fun a h -> if h then a else a + 1) 0
        r.Mtcmos.Selective.vt_high
    in
    let total_wl =
      Array.fold_left ( +. ) 0.0 r.Mtcmos.Selective.sleep_wl
    in
    let ratio = leak_paper /. r.Mtcmos.Selective.leakage in
    Format.printf
      "  %-8s paper W/L %-6.0f leak %-10s | selective leak %-10s (W/L \
       %.1f over %d clusters, %d/%d low-Vt) ratio %.3fx slack %s \
       [%.1f s, jobs=%d]@."
      name w_paper
      (eng ~unit:"A" leak_paper)
      (eng ~unit:"A" r.Mtcmos.Selective.leakage)
      total_wl
      (Array.length r.Mtcmos.Selective.sleep_wl)
      low
      (Array.length r.Mtcmos.Selective.vt_high)
      ratio
      (eng ~unit:"s" r.Mtcmos.Selective.slack)
      dt jobs;
    (r, ratio)
  in
  (* adder8 at the defaults, both worker counts: the determinism
     contract says the whole answer is a pure function of the spec *)
  let a8 =
    (Circuits.Ripple_adder.make t07 ~bits:8).Circuits.Ripple_adder.circuit
  in
  let r1, ratio_a8 = run ~name:"adder8" a8 ~clusters:4 ~max_passes:2 ~jobs:1 in
  let r4, _ = run ~name:"adder8" a8 ~clusters:4 ~max_passes:2 ~jobs:4 in
  if signature r1 <> signature r4 then begin
    Format.eprintf "select: adder8 answer differs between jobs=1 and jobs=4@.";
    exit 1
  end;
  Format.printf "  adder8 jobs=1 vs jobs=4: bit-identical@.";
  if ratio_a8 < 2.0 then begin
    Format.eprintf "select: adder8 leakage ratio %.3f < 2x@." ratio_a8;
    exit 1
  end;
  (* kogge32: the wide log-depth netlist where clustering actually has
     to work for its keep; more refinement passes in the full run *)
  let k32 =
    (Circuits.Kogge_stone.make t07 ~bits:32).Circuits.Kogge_stone.circuit
  in
  let clusters, max_passes = if fast then (2, 4) else (4, 6) in
  let _, ratio_k32 = run ~name:"kogge32" k32 ~clusters ~max_passes ~jobs:4 in
  if ratio_k32 < 2.0 then begin
    Format.eprintf "select: kogge32 leakage ratio %.3f < 2x@." ratio_k32;
    exit 1
  end

(* ---- Bechamel microbenchmarks -------------------------------------------------- *)

let bechamel () =
  header "BECHAMEL: engine microbenchmarks (one kernel per experiment)";
  let open Bechamel in
  let tree_kernel () =
    ignore
      (BP.simulate_ints
         ~config:(BP.mtcmos_config t07 ~wl:8.0)
         tree_c ~before:(fst tree_vec) ~after:(snd tree_vec))
  in
  let adder_kernel () =
    ignore
      (BP.simulate_ints
         ~config:(BP.mtcmos_config t07 ~wl:10.0)
         adder_c ~before:[ (3, 1); (3, 5) ] ~after:[ (3, 6); (3, 5) ])
  in
  let mult_kernel () =
    ignore
      (BP.simulate_ints
         ~config:(BP.mtcmos_config t03 ~wl:170.0)
         mult_c ~before:(fst mult_vec_a) ~after:(snd mult_vec_a))
  in
  let vground_kernel =
    let cfg = Mtcmos.Vground.config t07 in
    let gates =
      List.init 9 (fun _ -> { Mtcmos.Vground.beta_wl = 1.5; vin = 1.2 })
    in
    fun () -> ignore (Mtcmos.Vground.solve_resistor cfg ~r:1000.0 gates)
  in
  let spice_kernel =
    let ch = Circuits.Chain.inverter_chain t07 ~length:2 in
    let c = ch.Circuits.Chain.circuit in
    fun () ->
      ignore
        (SR.run ~config:{ SR.default_config with SR.t_stop = 1e-9 } c
           ~before:[| Netlist.Signal.L0 |] ~after:[| Netlist.Signal.L1 |])
  in
  let tests =
    [ Test.make ~name:"fig10/tree-switch-level" (Staged.stage tree_kernel);
      Test.make ~name:"fig13/adder-switch-level" (Staged.stage adder_kernel);
      Test.make ~name:"fig7/mult8-switch-level" (Staged.stage mult_kernel);
      Test.make ~name:"eq5/vground-solve" (Staged.stage vground_kernel);
      Test.make ~name:"cpu/spice-2-inverter-1ns" (Staged.stage spice_kernel) ]
  in
  let benchmark test =
    let instances = [ Toolkit.Instance.monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 10) ()
    in
    Benchmark.all cfg instances test
  in
  List.iter
    (fun test ->
      let results = benchmark test in
      Hashtbl.iter
        (fun name raw ->
          match
            Analyze.one
              (Analyze.ols ~bootstrap:0 ~r_square:false
                 ~predictors:[| Measure.run |])
              Toolkit.Instance.monotonic_clock raw
          with
          | ols ->
            (match Analyze.OLS.estimates ols with
             | Some [ est ] ->
               Format.printf "  %-28s %s/run@." name
                 (eng ~unit:"s" (est *. 1e-9))
             | Some _ | None -> Format.printf "  %-28s (no estimate)@." name))
        results)
    tests

(* ---- driver -------------------------------------------------------------------- *)

let all ~fast () =
  fig5 ();
  fig10 ();
  fig11 ();
  fig7 ~fast ();
  table1 ();
  fig13 ();
  fig14 ~fast ();
  cpu ~fast ();
  ablations ();
  design_space ();
  extras ~fast ();
  par ~fast ();
  cache_exp ~fast ();
  runner_exp ~fast ();
  obs_exp ~fast ();
  serve_exp ~fast ();
  scale_exp ~fast ();
  speed_exp ~fast ();
  select_exp ~fast ();
  bechamel ()

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let fast = List.mem "fast" args in
  List.iter
    (fun a ->
      if String.length a > 4 && String.sub a 0 4 = "csv=" then
        csv_dir := Some (String.sub a 4 (String.length a - 4)))
    args;
  let args =
    List.filter
      (fun a ->
        a <> "fast"
        && not (String.length a > 4 && String.sub a 0 4 = "csv="))
      args
  in
  (match args with
  | [] -> all ~fast ()
  | names ->
    List.iter
      (fun name ->
        match name with
        | "fig5" -> fig5 ()
        | "fig7" -> fig7 ~fast ()
        | "table1" -> table1 ()
        | "fig10" -> fig10 ()
        | "fig11" -> fig11 ()
        | "fig13" -> fig13 ()
        | "fig14" -> fig14 ~fast ()
        | "cpu" -> cpu ~fast ()
        | "ablations" -> ablations ()
        | "design-space" -> design_space ()
        | "extras" -> extras ~fast ()
        | "par" -> par ~fast ()
        | "cache" -> cache_exp ~fast ()
        | "runner" -> runner_exp ~fast ()
        | "obs" -> obs_exp ~fast ()
        | "serve" -> serve_exp ~fast ()
        | "scale" -> scale_exp ~fast ()
        | "speed" -> speed_exp ~fast ()
        | "select" -> select_exp ~fast ()
        | "bechamel" -> bechamel ()
        | other ->
          Format.eprintf
            "unknown experiment %S (fig5 fig7 table1 fig10 fig11 fig13 \
             fig14 cpu ablations extras par cache runner obs serve \
             scale speed select bechamel)@."
            other;
          exit 2)
      names)
