(* Layer probes: direct, untraced calls into one layer's public
   functions, timed from outside.  Each returns named per-layer
   metrics. *)

(* [La.Sparse.factor] / [solve] on a real MNA pattern, with seeded
   diagonally dominant values (no pivoting is done, so dominance keeps
   every pivot safe). *)
let la (sys : Spice.Mna.system) =
  let p = sys.Spice.Mna.pattern and sym = sys.Spice.Mna.symbolic in
  let n = La.Sparse.pattern_size p in
  let m = La.Sparse.create_matrix p in
  let st = Random.State.make [| 7 |] in
  for i = 0 to n - 1 do
    let row = ref 0.0 in
    for j = 0 to n - 1 do
      if i <> j then
        match La.Sparse.slot p i j with
        | s ->
          let v = Random.State.float st 2.0 -. 1.0 in
          m.La.Sparse.values.(s) <- v;
          row := !row +. Float.abs v
        | exception Not_found -> ()
    done;
    m.La.Sparse.values.(La.Sparse.slot p i i) <- !row +. 1.0
  done;
  let factor_us = Util.per_call_us ~reps:50 (fun () -> ignore (La.Sparse.factor sym m)) in
  let num = La.Sparse.factor sym m in
  let b = Array.init n float_of_int in
  let solve_us = Util.per_call_us ~reps:200 (fun () -> ignore (La.Sparse.solve num b)) in
  let reps = 100 in
  let w0 = Gc.minor_words () in
  for _ = 1 to reps do
    ignore (La.Sparse.factor sym m)
  done;
  let factor_words = (Gc.minor_words () -. w0) /. float_of_int reps in
  [ ("la.factor_us", factor_us);
    ("la.solve_us", solve_us);
    ("la.factor_words", factor_words);
    ("la.fill_nnz", float_of_int (La.Sparse.fill_nnz sym)) ]

(* One transistor-level analysis of [circuit] at sleep size [wl] per
   fast mode: the prepare step on its own (expansion + MNA set-up) and
   a whole [Spice_ref.run_ints], with the horizon [Sizing] would pick.
   Also returns the [`Off] MNA system for {!la}. *)
let spice ~(tech : Device.Tech.t) ~circuit ~vectors ~wl =
  let before, after = List.hd vectors in
  let sleep = Util.sleep_fet tech ~wl in
  let d = Mtcmos.Sizing.delay_at circuit ~vectors ~wl in
  let dc = Mtcmos.Spice_ref.default_config in
  let t_stop =
    Float.max dc.Mtcmos.Spice_ref.t_stop
      (dc.Mtcmos.Spice_ref.t_start +. (3.0 *. d.Mtcmos.Sizing.mtcmos_delay))
  in
  let stimuli =
    Array.to_list
      (Array.map
         (fun n -> (n, Phys.Pwl.constant 0.0))
         (Netlist.Circuit.inputs circuit))
  in
  let prepare fast =
    let inst =
      Netlist.Expand.expand ~config:(Netlist.Expand.mtcmos ~wl) circuit ~stimuli
    in
    Spice.Engine.prepare
      ~opts:Spice.Engine.Opts.(with_fast fast default)
      inst.Netlist.Expand.netlist
  in
  let mode fast suffix =
    let prepare_s =
      Util.median
        (List.init 5 (fun _ -> snd (Util.timed (fun () -> ignore (prepare fast)))))
    in
    let config = { dc with Mtcmos.Spice_ref.sleep; t_stop; fast } in
    let transient_s =
      Util.median
        (List.init 3 (fun _ ->
             snd
               (Util.timed (fun () ->
                    ignore
                      (Mtcmos.Spice_ref.run_ints ~config circuit ~before ~after)))))
    in
    [ ("spice.prepare_s" ^ suffix, prepare_s);
      ("spice.transient_s" ^ suffix, transient_s) ]
  in
  let metrics = mode `Off "" @ mode `Reduce_bypass ".reduce_bypass" in
  (metrics, Spice.Engine.system (prepare `Off))

(* [Event_sim.transition] per pair, and its worklist sparsity from the
   [event_sim.*] counters it publishes. *)
let event_sim circuit pairs =
  let es = Netlist.Event_sim.compile circuit in
  let levels = Netlist.Logic_sim.pack_ints circuit in
  let pairs = List.map (fun (b, a) -> (levels b, levels a)) pairs in
  let per_pair =
    List.map
      (fun (before, after) ->
        Util.per_call_us ~samples:3 ~reps:20 (fun () ->
            ignore (Netlist.Event_sim.transition es ~before ~after)))
      pairs
  in
  let obs = Obs.create () in
  List.iter
    (fun (before, after) ->
      ignore (Netlist.Event_sim.transition ~obs es ~before ~after))
    pairs;
  let m = Obs.metrics obs in
  let steps = Obs.Metrics.count m "event_sim.steps" in
  [ ("event_sim.transition_us.p50", Util.median per_pair);
    ( "event_sim.touched_per_step",
      float_of_int (Obs.Metrics.count m "event_sim.touched_gates")
      /. float_of_int (max 1 steps) ) ]
