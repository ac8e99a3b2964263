(* Fast transient path: RC-chain reduction, quiescent-device bypass and
   LTE stepping, behind the Engine.Opts record.

   The guarantees pinned here:
   - [`Reduce] is exact on a series-RC ladder: the reduced system is
     smaller, yet every waveform — anchors and eliminated interiors
     alike — matches the unreduced engine to solver rounding, for both
     integration methods, and DC back-substitution matches the
     closed-form divider (including a ground-anchored chain).
   - [`Off] reproduces a recorded ladder trajectory bit for bit, and is
     bit-identical across jobs {1,4} x cache {off,on} through the
     Sizing front end.
   - [`Reduce_bypass] stays within its calibrated tolerance band at
     every recorded output and its critical delays track [`Off].
   - the default transient step is derived from the fastest explicit RC
     time constant instead of the historical flat [t_stop / 2000]. *)

module T = Netlist.Transistor
module E = Spice.Engine
module SR = Mtcmos.Spice_ref

let tech = Fixtures.tech

(* vsrc - R - n0 - R - n1 - ... - n_{k-1}, a grounded cap on every
   internal node.  Nodes n0 .. n_{k-2} are chain-eligible (exactly two
   resistor neighbours, caps to ground only); the far end keeps a
   single resistor, so it anchors the chain. *)
let ladder ?(segments = 12) ?(r = 1000.0) ?(c = 1e-13) () =
  let b = T.builder () in
  let src = T.node ~name:"src" b in
  T.add b
    (T.Vsrc
       { pos = src; neg = T.ground;
         wave = Phys.Pwl.create [ (0.0, 0.0); (10.0 *. r *. c, 1.0) ] });
  let nodes =
    Array.init segments (fun i -> T.node ~name:(Printf.sprintf "n%d" i) b)
  in
  Array.iteri
    (fun i n ->
      let prev = if i = 0 then src else nodes.(i - 1) in
      T.add b (T.Res { pos = prev; neg = n; r });
      T.add b (T.Cap { pos = n; neg = T.ground; c }))
    nodes;
  (T.freeze b, src, nodes)

let prep ?(opts = E.Opts.default) netlist fast =
  E.prepare ~opts:E.Opts.(opts |> with_fast fast) netlist

let test_reduce_shrinks_system () =
  let netlist, _, nodes = ladder () in
  let off = prep netlist `Off and red = prep netlist `Reduce in
  let n_off = (E.system off).Spice.Mna.n_unknowns in
  let n_red = (E.system red).Spice.Mna.n_unknowns in
  Alcotest.(check int)
    "interior nodes eliminated"
    (Array.length nodes - 1)
    (Spice.Mna.reduced_nodes (E.system red));
  Alcotest.(check bool) "system is smaller" true (n_red < n_off)

let test_transient_interiors_exact () =
  let netlist, src, nodes = ladder () in
  let tau = 1000.0 *. 1e-13 in
  let t_stop = 40.0 *. tau and dt = tau /. 10.0 in
  List.iter
    (fun integration ->
      let run fast =
        let opts = E.Opts.(default |> with_integration integration |> with_dt dt) in
        let eng = prep ~opts netlist fast in
        let res =
          match E.transient_r eng ~t_stop with
          | Ok r -> r
          | Error f -> Alcotest.failf "transient: %s" (Spice.Diag.failure_to_string f)
        in
        (eng, res)
      in
      let _, res_off = run `Off and _, res_red = run `Reduce in
      Array.iter
        (fun node ->
          let w0 = E.waveform res_off node in
          let w1 = E.waveform res_red node in
          Array.iter
            (fun (t, v0) ->
              let v1 = Phys.Pwl.value_at w1 t in
              if Float.abs (v1 -. v0) > 1e-9 then
                Alcotest.failf
                  "node %d at t=%.3e: reduced %.12f vs full %.12f" node t
                  v1 v0)
            (Phys.Pwl.sample w0 ~t0:0.0 ~t1:t_stop ~n:64))
        (Array.append [| src |] nodes))
    [ E.Backward_euler; E.Trapezoidal ]

(* 2 V across five equal resistors in series, middle nodes carrying
   grounded caps: a divider whose chain anchors at the source on one
   side and at ground on the other.  DC back-substitution must recover
   the closed-form taps. *)
let test_dc_ground_anchored_chain () =
  let b = T.builder () in
  let top = T.node ~name:"top" b in
  T.add b
    (T.Vsrc { pos = top; neg = T.ground; wave = Phys.Pwl.constant 2.0 });
  let taps = Array.init 4 (fun i -> T.node ~name:(Printf.sprintf "t%d" i) b) in
  Array.iteri
    (fun i n ->
      let prev = if i = 0 then top else taps.(i - 1) in
      T.add b (T.Res { pos = prev; neg = n; r = 1000.0 });
      T.add b (T.Cap { pos = n; neg = T.ground; c = 1e-13 }))
    taps;
  T.add b (T.Res { pos = taps.(3); neg = T.ground; r = 1000.0 });
  let netlist = T.freeze b in
  let eng = prep netlist `Reduce in
  Alcotest.(check bool)
    "chain detected" true
    (Spice.Mna.reduced_nodes (E.system eng) > 0);
  let x = E.dc eng in
  Array.iteri
    (fun i n ->
      let expected = 2.0 *. float_of_int (4 - i) /. 5.0 in
      Alcotest.(check (float 1e-7))
        (Printf.sprintf "tap %d" i)
        expected (E.voltage eng x n))
    taps

let test_default_dt_from_tau () =
  let t_stop = 6e-9 in
  (* fast deck: the stiffest node sees two 1 kOhm resistors and 1 fF,
     tau = C / (2 g) = 0.5 ps, well under t_stop/2000 = 3 ps *)
  let fast_netlist, _, _ = ladder ~r:1000.0 ~c:1e-15 () in
  let eng = prep fast_netlist `Off in
  Alcotest.(check (float 1e-16))
    "fast RC refines the step" (0.25e-12)
    (E.default_dt eng ~t_stop);
  (* slow deck: tau = 100 ns, the historical default stands *)
  let slow_netlist, _, _ = ladder ~r:1e6 ~c:1e-13 () in
  let eng = prep slow_netlist `Off in
  Alcotest.(check (float 1e-16))
    "slow RC keeps t_stop/2000" (t_stop /. 2000.0)
    (E.default_dt eng ~t_stop);
  (* degenerate: the floor at t_stop/50000 *)
  let tiny_netlist, _, _ = ladder ~r:1.0 ~c:1e-18 () in
  let eng = prep tiny_netlist `Off in
  Alcotest.(check (float 1e-20))
    "floor at t_stop/50000" (t_stop /. 50000.0)
    (E.default_dt eng ~t_stop)

(* [`Off] on the 12-segment ladder (trapezoidal, dt = tau/20, 20 tau):
   final solution and step count recorded from the engine as it stood
   before the options channel was narrowed to [prepare].  Any change to
   the [`Off] arithmetic shows up here as a changed bit. *)
let off_ladder_final =
  [| 0x1.0000000000297p+0; 0x1.b4ad9a946be5fp-1; 0x1.6c003e1e32548p-1;
     0x1.2853c3556a73bp-1; 0x1.d6ff6105d357cp-2; 0x1.6d68cfc60c367p-2;
     0x1.14e96585d6dbcp-2; 0x1.9aa4ce3bb52d5p-3; 0x1.2b19c8467c413p-3;
     0x1.afe0db6512c75p-4; 0x1.3b252667436c9p-4; 0x1.e2eda7559105dp-5;
     0x1.9bdc80a112e76p-5; -0x1.3484b1fc9964p-13 |]

let test_off_pinned () =
  let netlist, _, _ = ladder () in
  let tau = 1e-10 in
  let opts =
    E.Opts.(default |> with_integration E.Trapezoidal |> with_dt (tau /. 20.0))
  in
  let res =
    match E.transient_r (prep ~opts netlist `Off) ~t_stop:(20.0 *. tau) with
    | Ok r -> r
    | Error f -> Alcotest.failf "transient: %s" (Spice.Diag.failure_to_string f)
  in
  let x = E.final_solution res in
  Alcotest.(check int) "same unknowns" (Array.length off_ladder_final)
    (Array.length x);
  Array.iteri
    (fun i v ->
      if not (Float.equal v off_ladder_final.(i)) then
        Alcotest.failf "unknown %d: %h vs recorded %h" i v off_ladder_final.(i))
    x;
  Alcotest.(check int) "same steps" 400 (E.steps_taken res)

(* [`Off] through the Sizing front end: bit-identical across worker
   counts and cache states (the cache key digests the fast mode, so an
   [`Off] entry can never serve a fast-mode query or vice versa). *)
let prop_off_jobs_cache_invariant =
  QCheck.Test.make ~count:4
    ~name:"speed: `Off sizing is jobs/cache-invariant (bit-identical)"
    QCheck.(int_bound 0xff)
    (fun bits ->
      let c = Fixtures.adder_circuit 2 in
      let vec =
        ( [ (2, bits land 3); (2, (bits lsr 2) land 3) ],
          [ (2, (bits lsr 4) land 3); (2, (bits lsr 6) land 3) ] )
      in
      let measure ~jobs ~cache =
        let ctx =
          Eval.Ctx.(
            default |> with_engine Eval.Spice_level |> with_jobs jobs)
        in
        let ctx =
          match cache with
          | None -> ctx
          | Some cache -> Eval.Ctx.with_cache cache ctx
        in
        Mtcmos.Sizing.delay_at ~ctx c ~vectors:[ vec ] ~wl:8.0
      in
      let base = measure ~jobs:1 ~cache:None in
      let shared = Eval.Cache.create () in
      let warm = measure ~jobs:1 ~cache:(Some shared) in
      let par = measure ~jobs:4 ~cache:None in
      let par_hit = measure ~jobs:4 ~cache:(Some shared) in
      (* structural compare, not (=): a vector whose outputs never
         switch yields delay 0 and a NaN degradation on every run *)
      compare base warm = 0 && compare base par = 0
      && compare base par_hit = 0)

(* [`Reduce_bypass] tolerance band, pinned at every recorded output of
   the expanded MOS netlists.  Calibration on the chain fixtures puts
   the worst node-voltage deviation well under the band; the delay
   check is relative with an absolute floor for near-zero delays. *)
let v_band = 0.06 (* volts, 5 % of the 1.2 V rail *)
let d_band_rel = 0.10
let d_band_abs = 20e-12

let prop_bypass_within_band =
  QCheck.Test.make ~count:6
    ~name:"speed: `Reduce_bypass within band at every recorded output"
    QCheck.(pair (int_range 2 5) bool)
    (fun (len, rising) ->
      let c = Fixtures.chain_circuit len in
      let before, after = if rising then Fixtures.bit_vec else
          (snd Fixtures.bit_vec, fst Fixtures.bit_vec)
      in
      let run fast =
        let config = { SR.default_config with SR.fast } in
        match SR.run_ints_r ~config c ~before ~after with
        | Ok r -> r
        | Error f ->
          QCheck.Test.fail_reportf "run (%s): %s"
            (E.Opts.fast_to_string fast)
            (Spice.Diag.failure_to_string f)
      in
      let off = run `Off and fb = run `Reduce_bypass in
      let t_stop = SR.default_config.SR.t_stop in
      Array.iter
        (fun net ->
          let w0 = SR.net_waveform off net in
          let w1 = SR.net_waveform fb net in
          Array.iter
            (fun (t, v0) ->
              let dv = Float.abs (Phys.Pwl.value_at w1 t -. v0) in
              if dv > v_band then
                QCheck.Test.fail_reportf
                  "net %d at t=%.3e: |dv| = %.4f > %.4f" net t dv v_band)
            (Phys.Pwl.sample w0 ~t0:0.0 ~t1:t_stop ~n:96))
        (Netlist.Circuit.outputs c);
      (match (SR.critical_delay off, SR.critical_delay fb) with
       | Some (_, d0), Some (_, d1) ->
         if Float.abs (d1 -. d0) > Float.max d_band_abs (d_band_rel *. d0)
         then
           QCheck.Test.fail_reportf "critical delay drifted: %.3e vs %.3e"
             d1 d0
       | None, None -> ()
       | Some (_, d0), None ->
         QCheck.Test.fail_reportf "fast path lost the transition (off %.3e)"
           d0
       | None, Some (_, d1) ->
         QCheck.Test.fail_reportf "fast path invented a transition (%.3e)"
           d1);
      true)

let seeded test =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 0x5eed; 0xfa57 |])
    test

let suite =
  [ Alcotest.test_case "reduce shrinks the unknown vector" `Quick
      test_reduce_shrinks_system;
    Alcotest.test_case "chain interiors exact vs full engine" `Quick
      test_transient_interiors_exact;
    Alcotest.test_case "dc back-substitution (ground-anchored chain)"
      `Quick test_dc_ground_anchored_chain;
    Alcotest.test_case "default dt derives from fastest RC tau" `Quick
      test_default_dt_from_tau;
    Alcotest.test_case "`Off ladder pinned (bit-identical)" `Quick
      test_off_pinned;
    seeded prop_off_jobs_cache_invariant;
    seeded prop_bypass_within_band ]
