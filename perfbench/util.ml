(* Small helpers shared by the benchmark modules: timing, order
   statistics, allocation counters, stable output digests and the
   sleep device. *)

let now = Unix.gettimeofday

(* [timed f] runs [f] once and returns its result with the wall time. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Linear-interpolated quantile of a non-empty sample, [q] in [0, 1]. *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> invalid_arg "Util.quantile: empty sample"
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else
      let frac = pos -. float_of_int i in
      a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

(* Words allocated by the program so far, every domain included (OCaml 5
   folds the counters of terminated domains into the totals). *)
let allocated_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let heap_peak_mb () =
  let s = Gc.quick_stat () in
  float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Hex digest of a list of lines — the form every recorded output
   reference takes. *)
let digest lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

(* Exact float rendering for output digests: hex floats round-trip bit
   for bit. *)
let hex f = Printf.sprintf "%h" f

(* Per-call time in microseconds for sub-millisecond calls: the median
   over [samples] samples, each timing [reps] calls back to back. *)
let per_call_us ?(samples = 15) ~reps f =
  median
    (List.init samples (fun _ ->
         let (), s =
           timed (fun () ->
               for _ = 1 to reps do
                 f ()
               done)
         in
         1e6 *. s /. float_of_int reps))

(* The tech card's high-Vt NMOS footer of size [wl]. *)
let sleep_fet (tech : Device.Tech.t) ~wl =
  Mtcmos.Breakpoint_sim.Sleep_fet
    (Device.Sleep.make tech.Device.Tech.sleep_nmos ~wl ~vdd:tech.Device.Tech.vdd)
