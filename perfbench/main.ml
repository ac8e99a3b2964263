(* Paper-workload benchmark: the main program.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Sets the workload up, runs passes back to back until they have taken
   [S] seconds (timing batches of set-ups between passes; their median
   is [setup_s]), checks every operation's output against its reference
   and prints the end-to-end metrics.  With [--trace 1] it instead runs
   a cold pass, a cache-off pass, an untraced and a traced pass, probes
   the layers directly and prints the per-layer metrics.  The last line
   of standard output is one JSON object; the lines before it are a
   readable summary. *)

(* Mean time of [n] set-ups run back to back.  They start from a
   collected heap, as a fresh process's set-up does; otherwise they
   would pay for collecting the last pass's garbage. *)
let time_setups (w : Workloads.t) ~seed n =
  Gc.full_major ();
  let (), s =
    Util.timed (fun () ->
        for _ = 1 to n do
          ignore (w.Workloads.setup ~seed)
        done)
  in
  s /. float_of_int n

(* Set-ups per [setup_s] sample: about 50 ms of them, so the clock's
   resolution and one-off pauses average out. *)
let setup_reps w ~seed = max 1 (int_of_float (0.05 /. time_setups w ~seed 10))

let usage () =
  prerr_endline
    "usage: main.exe --workload spice_size|vector_sweep|select_kogge|batch_warm \
     --seed N --seconds S --trace 0|1";
  exit 2

type args = { workload : Workloads.t; seed : int; seconds : float; trace : bool }

let parse_args () =
  let workload = ref None and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref false in
  let rec go = function
    | "--workload" :: w :: tl ->
      (match List.find_opt (fun x -> x.Workloads.name = w) Workloads.all with
       | Some x -> workload := Some x
       | None -> usage ());
      go tl
    | "--seed" :: n :: tl ->
      (match int_of_string_opt n with Some n -> seed := n | None -> usage ());
      go tl
    | "--seconds" :: s :: tl ->
      (match float_of_string_opt s with
       | Some s when s > 0.0 -> seconds := s
       | _ -> usage ());
      go tl
    | "--trace" :: t :: tl ->
      (match t with
       | "0" -> trace := false
       | "1" -> trace := true
       | _ -> usage ());
      go tl
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match !workload with
  | None -> usage ()
  | Some workload ->
    { workload; seed = !seed; seconds = !seconds; trace = !trace }

(* One pass with its wall time and allocation. *)
type sample = { pass : Workloads.pass; wall : float; words : float }

let run_pass (inst : Workloads.instance) ~cache ~obs =
  let w0 = Util.allocated_words () in
  let pass, wall = Util.timed (fun () -> inst.Workloads.pass ~cache ~obs) in
  { pass; wall; words = Util.allocated_words () -. w0 }

(* Operations attempted and failed over a list of passes: an operation
   fails when its output differs from the reference; a pass whose
   solver skipped work counts its degraded operations as failed. *)
let check (inst : Workloads.instance) samples =
  let expected = inst.Workloads.expected () in
  List.fold_left
    (fun (attempted, failed) s ->
      let outs = s.pass.Workloads.outputs in
      let wrong =
        if List.length outs <> List.length expected then List.length outs
        else
          List.fold_left2
            (fun acc got want ->
              if got = want then acc
              else begin
                Printf.eprintf "check failed: got %s, expected %s\n%!" got want;
                acc + 1
              end)
            0 outs expected
      in
      ( attempted + List.length outs,
        failed + min (List.length outs) (wrong + s.pass.Workloads.degraded) ))
    (0, 0) samples

let json_metric (name, unit, v) =
  Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit

let print_result ~attempted ~failed metrics =
  let finite = List.for_all (fun (_, _, v) -> Float.is_finite v) metrics in
  let metrics =
    List.map (fun (n, u, v) -> (n, u, if Float.is_finite v then v else 0.0)) metrics
  in
  List.iter (fun (n, u, v) -> Printf.printf "# %-34s %.6g %s\n" n v u) metrics;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0 && finite) attempted failed
    (String.concat ", " (List.map json_metric metrics))

let frac a b = if b > 0 then float_of_int a /. float_of_int b else 0.0

let sum f samples = List.fold_left (fun acc s -> acc + f s.pass) 0 samples

(* Share of the measured phase spent timing set-ups: after each pass,
   set-up samples for a fifth of that pass's time, so that they cover
   the run as the passes do and see the same changes in the machine's
   speed. *)
let setup_share = 0.2

(* The measured phase: passes back to back, each followed by its
   set-up samples, until they have taken [seconds]. *)
let measure args (inst : Workloads.instance) =
  let w = args.workload in
  let t0 = Util.now () in
  let first = run_pass inst ~cache:true ~obs:Obs.disabled in
  (* the peak of a fresh process's set-up and first pass: each later
     pass grows the heap a little, and their number depends on the
     machine's speed *)
  let heap = Util.heap_peak_mb () in
  let reps = setup_reps w ~seed:args.seed in
  let setups = ref [] in
  (* set-up samples after a pass; returns the time they took *)
  let sample_setups (pass : sample) =
    let rec go spent =
      if spent >= setup_share *. pass.wall then spent
      else begin
        let s, dt = Util.timed (fun () -> time_setups w ~seed:args.seed reps) in
        setups := s :: !setups;
        go (spent +. dt)
      end
    in
    go 0.0
  in
  let busy = ref (first.wall +. sample_setups first) in
  let rec loop acc =
    if !busy >= args.seconds then List.rev acc
    else begin
      let s = run_pass inst ~cache:true ~obs:Obs.disabled in
      busy := !busy +. s.wall +. sample_setups s;
      loop (s :: acc)
    end
  in
  let samples = loop [ first ] in
  let elapsed = Util.now () -. t0 in
  let attempted, failed = check inst samples in
  let units = sum (fun p -> p.Workloads.units) samples in
  let walls = List.map (fun s -> s.wall) samples in
  let wall_s = Util.median walls in
  Printf.printf "# %s seed %d: %d passes, %d %s in %.3f s, %d set-up samples of %d\n"
    w.Workloads.name args.seed (List.length samples) units w.Workloads.unit_label
    elapsed (List.length !setups) reps;
  Printf.printf "# passes: p90 %.4f s, fastest %.4f s\n" (Util.quantile 0.9 walls)
    (List.fold_left Float.min infinity walls);
  Printf.printf "# failed_frac %.6g (%d/%d)\n" (frac failed attempted) failed
    attempted;
  let analyses = sum (fun p -> p.Workloads.analyses) samples in
  let recovered = sum (fun p -> p.Workloads.recovered) samples in
  if analyses > 0 then
    Printf.printf "# recovered_frac %.6g (%d/%d spice analyses)\n"
      (frac recovered analyses) recovered analyses;
  print_result ~attempted ~failed
    [ ("setup_s", "s", Util.median !setups);
      ("wall_s", "s", wall_s);
      (* every pass does the same work, so its units over the median pass *)
      ( "ops_per_s", "1/s",
        float_of_int (List.hd samples).pass.Workloads.units /. wall_s );
      ("alloc_mwords", "Mwords", Util.median (List.map (fun s -> s.words /. 1e6) samples));
      ("heap_peak_mb", "MB", heap) ]

let traced args (inst : Workloads.instance) =
  (* the first pass grows the heap and warms caches; the comparisons
     below use only the passes after it *)
  let cold = run_pass inst ~cache:true ~obs:Obs.disabled in
  let nocache = run_pass inst ~cache:false ~obs:Obs.disabled in
  let untraced = run_pass inst ~cache:true ~obs:Obs.disabled in
  let obs = Obs.create ~trace:true () in
  Workloads.caches := [];
  let traced = run_pass inst ~cache:true ~obs in
  let total f =
    List.fold_left (fun acc c -> acc + f (Eval.Cache.counters c)) 0 !Workloads.caches
  in
  let cache =
    { Eval.Cache.hits = total (fun k -> k.Eval.Cache.hits);
      misses = total (fun k -> k.Eval.Cache.misses);
      evictions = total (fun k -> k.Eval.Cache.evictions);
      entries = total (fun k -> k.Eval.Cache.entries);
      bytes = total (fun k -> k.Eval.Cache.bytes) }
  in
  let probes = inst.Workloads.probes () in
  let samples = [ cold; nocache; untraced; traced ] in
  let attempted, failed = check inst samples in
  Printf.printf "# %s seed %d: traced pass %.3f s, untraced %.3f s, cache off %.3f s\n"
    args.workload.Workloads.name args.seed traced.wall untraced.wall nocache.wall;
  let layers =
    Layers.collect
      { Layers.obs;
        wall = traced.wall;
        untraced_wall = untraced.wall;
        nocache_wall = nocache.wall;
        pass_words = traced.words;
        cache;
        compile_s = inst.Workloads.compile_s;
        probes }
  in
  print_result ~attempted ~failed layers

let () =
  let args = parse_args () in
  let inst = args.workload.Workloads.setup ~seed:args.seed in
  if args.trace then traced args inst else measure args inst
