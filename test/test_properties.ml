(* Additional property tests across module boundaries. *)

module BP = Mtcmos.Breakpoint_sim
module S = Netlist.Signal

let tech = Fixtures.tech

let prop_pwl_crossings_alternate =
  QCheck.Test.make ~count:200
    ~name:"pwl: crossings of one level alternate in direction"
    QCheck.(list_of_size Gen.(int_range 2 20) (float_range (-2.0) 2.0))
    (fun vs ->
      let pts = List.mapi (fun i v -> (float_of_int i, v)) vs in
      let w = Phys.Pwl.create pts in
      let crossings = Phys.Pwl.crossings w ~level:0.25 in
      let rec alternates = function
        | (_, d1) :: ((_, d2) :: _ as rest) ->
          d1 <> d2 && alternates rest
        | [ _ ] | [] -> true
      in
      (* degenerate touches at exactly the level can repeat a direction;
         filter exact-level endpoints out of scope *)
      QCheck.assume (List.for_all (fun v -> Float.abs (v -. 0.25) > 1e-9) vs);
      alternates crossings)

let prop_pwl_sub_is_linear =
  QCheck.Test.make ~count:200 ~name:"pwl: (a - b) + b = a at sample points"
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 10)
           (pair (float_bound_exclusive 10.0) (float_range (-3.0) 3.0)))
        (list_of_size Gen.(int_range 1 10)
           (pair (float_bound_exclusive 10.0) (float_range (-3.0) 3.0))))
    (fun (pa, pb) ->
      QCheck.assume (pa <> [] && pb <> []);
      let a = Phys.Pwl.create pa and b = Phys.Pwl.create pb in
      let d = Phys.Pwl.sub a b in
      List.for_all
        (fun t ->
          Float.abs
            (Phys.Pwl.value_at d t +. Phys.Pwl.value_at b t
             -. Phys.Pwl.value_at a t)
          < 1e-9)
        [ 0.0; 2.5; 5.0; 9.9 ])

let prop_vground_current_conservation =
  let cfg = Mtcmos.Vground.config tech in
  QCheck.Test.make ~count:150
    ~name:"vground: solver satisfies KCL at the equilibrium"
    QCheck.(pair (float_range 50.0 50000.0)
              (list_of_size Gen.(int_range 1 12) (float_range 0.5 6.0)))
    (fun (r, wls) ->
      let gates =
        List.map (fun wl -> { Mtcmos.Vground.beta_wl = wl; vin = 1.2 }) wls
      in
      let vx = Mtcmos.Vground.solve_resistor cfg ~r gates in
      let i_gates = Mtcmos.Vground.total_current cfg ~vx gates in
      Float.abs ((vx /. r) -. i_gates) <= 1e-6 *. (1.0 +. i_gates))

let prop_search_flipbit_involution =
  (* two flips of the same bit restore the assignment: exercised through
     the public hill climb by checking determinism across seeds *)
  QCheck.Test.make ~count:20 ~name:"search: scores never regress vs start"
    QCheck.(int_bound 500)
    (fun seed ->
      let add = Fixtures.adder 2 in
      let c = add.Circuits.Ripple_adder.circuit in
      let sleep =
        BP.Sleep_fet
          (Device.Sleep.make tech.Device.Tech.sleep_nmos ~wl:8.0 ~vdd:1.2)
      in
      let o =
        Mtcmos.Search.hill_climb ~seed ~restarts:1 ~max_iters:40 c ~sleep
          ~widths:[ 2; 2 ] Mtcmos.Search.Max_vx
      in
      o.Mtcmos.Search.score
      >= Mtcmos.Search.score c ~sleep Mtcmos.Search.Max_vx
           o.Mtcmos.Search.pair
         -. 1e-12)

let prop_resize_idempotent =
  QCheck.Test.make ~count:25 ~name:"resize: repair is a fixpoint"
    QCheck.(int_bound 300)
    (fun seed ->
      let r = Circuits.Random_logic.make ~seed tech ~inputs:4 ~gates:15 in
      let c = r.Circuits.Random_logic.circuit in
      let rep1 = Mtcmos.Resize.fix_weak_drivers c in
      let rep2 =
        Mtcmos.Resize.fix_weak_drivers rep1.Mtcmos.Resize.circuit
      in
      rep2.Mtcmos.Resize.upsized = [])

let prop_sequence_vx_bounded =
  QCheck.Test.make ~count:25 ~name:"sequence: workload rails stay in [0,vdd]"
    QCheck.(int_bound 500)
    (fun seed ->
      let add = Fixtures.adder 2 in
      let c = add.Circuits.Ripple_adder.circuit in
      let vectors =
        Mtcmos.Sequence.random_workload ~seed ~widths:[ 2; 2 ] 6
      in
      let r =
        Mtcmos.Sequence.run ~config:(BP.mtcmos_config tech ~wl:8.0) c
          ~period:5e-9 ~vectors
      in
      r.Mtcmos.Sequence.worst_vx >= 0.0
      && r.Mtcmos.Sequence.worst_vx <= 1.2)

let prop_deck_roundtrip_counts =
  QCheck.Test.make ~count:20 ~name:"deck: element counts survive export"
    QCheck.(int_bound 300)
    (fun seed ->
      let r = Circuits.Random_logic.make ~seed tech ~inputs:3 ~gates:8 in
      let c = r.Circuits.Random_logic.circuit in
      let stimuli =
        Array.to_list
          (Array.map
             (fun n -> (n, Phys.Pwl.constant 0.0))
             (Netlist.Circuit.inputs c))
      in
      let inst =
        Netlist.Expand.expand ~config:(Netlist.Expand.mtcmos ~wl:5.0) c
          ~stimuli
      in
      let deck = Spice.Deck.to_deck inst.Netlist.Expand.netlist in
      let count prefix =
        String.split_on_char '\n' deck
        |> List.filter (fun l ->
               String.length l > 1
               && l.[0] = prefix
               && l.[1] >= '0'
               && l.[1] <= '9')
        |> List.length
      in
      count 'M' = Netlist.Transistor.count inst.Netlist.Expand.netlist `Mos
      && count 'C' = Netlist.Transistor.count inst.Netlist.Expand.netlist `Cap)

let prop_parse_print_kind_names =
  let kinds =
    [ Netlist.Gate.Inv; Netlist.Gate.Buf; Netlist.Gate.Nand 2;
      Netlist.Gate.Nand 5; Netlist.Gate.Nor 3; Netlist.Gate.And 4;
      Netlist.Gate.Or 2; Netlist.Gate.Xor2; Netlist.Gate.Xnor2;
      Netlist.Gate.Aoi21; Netlist.Gate.Oai21; Netlist.Gate.Carry_inv;
      Netlist.Gate.Sum_inv ]
  in
  QCheck.Test.make ~count:(List.length kinds)
    ~name:"parse: kind_of_string inverts Gate.name"
    QCheck.(int_bound (List.length kinds - 1))
    (fun i ->
      let k = List.nth kinds i in
      Netlist.Parse.kind_of_string (Netlist.Gate.name k) = Some k)

let prop_transient_samples_finite =
  (* resilience invariant: an [Ok] transient contains only finite
     samples, whatever random logic it simulates *)
  QCheck.Test.make ~count:15 ~name:"engine: Ok transients are NaN-free"
    QCheck.(int_bound 400)
    (fun seed ->
      let r = Circuits.Random_logic.make ~seed tech ~inputs:3 ~gates:6 in
      let c = r.Circuits.Random_logic.circuit in
      let vdd = tech.Device.Tech.vdd in
      let stimuli =
        Array.to_list
          (Array.mapi
             (fun i n ->
               let t0 = 100e-12 +. (float_of_int i *. 50e-12) in
               ( n,
                 if i mod 2 = 0 then
                   Phys.Pwl.create
                     [ (0.0, 0.0); (t0, 0.0); (t0 +. 50e-12, vdd) ]
                 else Phys.Pwl.constant 0.0 ))
             (Netlist.Circuit.inputs c))
      in
      let inst = Netlist.Expand.expand c ~stimuli in
      let eng =
        Spice.Engine.prepare
          ~opts:Spice.Engine.Opts.(default |> with_dt 10e-12)
          inst.Netlist.Expand.netlist
      in
      match Spice.Engine.transient_r eng ~t_stop:1e-9 with
      | Error _ -> true (* a structured failure is an acceptable outcome *)
      | Ok res ->
        Array.for_all
          (fun node ->
            List.for_all
              (fun (t, v) -> Float.is_finite t && Float.is_finite v)
              (Phys.Pwl.points (Spice.Engine.waveform res node)))
          (Array.init
             (Netlist.Transistor.num_nodes inst.Netlist.Expand.netlist)
             (fun i -> i)))

let prop_result_api_never_raises =
  (* the fault corpus exercises each injected failure mode through both
     Result-typed analyses; neither may leak an exception *)
  let corpus = Array.of_list (Spice.Faults.corpus ~tech) in
  QCheck.Test.make
    ~count:(2 * Array.length corpus)
    ~name:"engine: dc_r/transient_r never raise on the fault corpus"
    QCheck.(int_bound (Array.length corpus - 1))
    (fun i ->
      let case = corpus.(i) in
      let eng =
        Spice.Engine.prepare
          ~opts:
            Spice.Engine.Opts.(
              default
              |> with_dt case.Spice.Faults.dt
              |> with_record (Spice.Engine.Nodes [ case.Spice.Faults.watch ]))
          case.Spice.Faults.netlist
      in
      match
        ( Spice.Engine.dc_r eng,
          Spice.Engine.transient_r eng ~t_stop:case.Spice.Faults.t_stop )
      with
      | (Ok _ | Error _), (Ok _ | Error _) -> true
      | exception _ -> false)

let prop_hierarchy_blocks_cover =
  QCheck.Test.make ~count:40 ~name:"hierarchy: by_level maps into range"
    QCheck.(pair (int_bound 400) (int_range 1 5))
    (fun (seed, blocks) ->
      let r = Circuits.Random_logic.make ~seed tech ~inputs:4 ~gates:20 in
      let c = r.Circuits.Random_logic.circuit in
      let f = Mtcmos.Hierarchy.by_level c ~blocks in
      Array.for_all
        (fun (g : Netlist.Circuit.gate_inst) ->
          let b = f g.Netlist.Circuit.id in
          b >= 0 && b < blocks)
        (Netlist.Circuit.gates c))

let prop_score_jobs_invariant =
  (* the parallel transistor-level score is the sequential one, bit for
     bit, and so are the resilience counters it records *)
  let ch = Fixtures.chain 3 in
  let c = ch.Circuits.Chain.circuit in
  let sleep =
    BP.Sleep_fet
      (Device.Sleep.make tech.Device.Tech.sleep_nmos ~wl:6.0 ~vdd:1.2)
  in
  QCheck.Test.make ~count:4 ~name:"search: score at jobs=2 = jobs=1 exactly"
    QCheck.(int_bound 3)
    (fun v ->
      let pair = ([ (1, v land 1) ], [ (1, (v lsr 1) land 1) ]) in
      let run jobs =
        let stats = Eval.Resilience.create () in
        let s =
          Mtcmos.Search.score
            ~ctx:
              Eval.Ctx.(
                default |> with_engine Eval.Spice_level |> with_stats stats
                |> with_jobs jobs)
            c ~sleep Mtcmos.Search.Max_degradation pair
        in
        ( s,
          stats.Eval.Resilience.attempted,
          stats.Eval.Resilience.direct,
          stats.Eval.Resilience.recovered,
          stats.Eval.Resilience.scored_zero )
      in
      run 1 = run 2)

let prop_hunt_reproducible =
  (* a hunt is a pure function of its seed: rerunning it, sequentially
     or across domains, lands on the same outcome *)
  QCheck.Test.make ~count:8
    ~name:"search: hunt outcome is reproducible and jobs-invariant"
    QCheck.(int_bound 1000)
    (fun seed ->
      let add = Fixtures.adder 2 in
      let c = add.Circuits.Ripple_adder.circuit in
      let sleep =
        BP.Sleep_fet
          (Device.Sleep.make tech.Device.Tech.sleep_nmos ~wl:8.0 ~vdd:1.2)
      in
      let hunt jobs =
        Mtcmos.Search.hill_climb ~seed ~restarts:3 ~max_iters:40
          ~ctx:Eval.Ctx.(default |> with_jobs jobs)
          c ~sleep ~widths:[ 2; 2 ] Mtcmos.Search.Max_degradation
      in
      let a = hunt 1 and b = hunt 1 and p = hunt 2 in
      a = b && a = p)

(* every QCheck suite below draws from an explicitly seeded generator:
   a run is reproducible from the source alone, with no dependence on
   qcheck's global seed or the QCHECK_SEED environment *)
let seeded test =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 0x5eed; 0xca5e |])
    test

let suite =
  [ seeded prop_pwl_crossings_alternate;
    seeded prop_pwl_sub_is_linear;
    seeded prop_vground_current_conservation;
    seeded prop_search_flipbit_involution;
    seeded prop_resize_idempotent;
    seeded prop_sequence_vx_bounded;
    seeded prop_deck_roundtrip_counts;
    seeded prop_parse_print_kind_names;
    seeded prop_transient_samples_finite;
    seeded prop_result_api_never_raises;
    seeded prop_hierarchy_blocks_cover;
    seeded prop_score_jobs_invariant;
    seeded prop_hunt_reproducible ]
