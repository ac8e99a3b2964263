(* Batch-runner suite: the job-file language (parse, canonicalize,
   fingerprint), the deterministic JSON emitter, the crash-tolerant
   journal, per-job failure isolation, and the headline property —
   killing the runner after a random prefix of jobs and resuming from
   the journal yields a manifest byte-identical to an uninterrupted
   run, whatever the seed and worker count. *)

let spec_src =
  {|
; the suite's standard batch
(batch
  (tech 07um)
  (defaults (engine bp) (jobs 1))
  (circuit c2 chain)
  (circuit a1 adder1)
  (job sweep s1 (circuit c2) (wls 5 20))
  (job size z1 (circuit a1) (target 0.05))
  (job worst-vectors w1 (circuit a1) (wl 10) (top 2))
  (job monte-carlo m1 (circuit c2) (wl 10) (n 4) (seed 7)))
|}

let spec () =
  match Runner.Spec.parse_string spec_src with
  | Ok s -> s
  | Error e -> Alcotest.failf "spec did not parse: %s" e

let temp_path () =
  let f = Filename.temp_file "mtsize-runner" ".journal" in
  Sys.remove f;
  f

(* --- S-expressions -------------------------------------------------- *)

let test_sexp_round_trip () =
  let src = {|(a "b c" (d -1.5e-9 "q\"\\n") ()) atom|} in
  match Runner.Sexp.parse_string src with
  | Error e -> Alcotest.fail e
  | Ok forms ->
    let rendered =
      String.concat " " (List.map Runner.Sexp.to_string forms)
    in
    (match Runner.Sexp.parse_string rendered with
     | Ok reparsed -> Alcotest.(check bool) "fixpoint" true (forms = reparsed)
     | Error e -> Alcotest.failf "canonical form did not reparse: %s" e)

let test_sexp_errors () =
  let err s =
    match Runner.Sexp.parse_string s with
    | Error m -> m
    | Ok _ -> Alcotest.failf "%S parsed" s
  in
  Alcotest.(check bool)
    "unclosed paren has a line number" true
    (String.length (err "(a\n(b") > 0
     && String.sub (err "(a\n(b") 0 7 = "line 2:");
  ignore (err "(a))");
  ignore (err {|("unterminated|});
  (* with a source name the position is compiler-style "file:line:" *)
  (match Runner.Sexp.parse_string ~file:"jobs.mtz" "(a\n(b" with
   | Error m ->
     Alcotest.(check string) "file-qualified position" "jobs.mtz:2:"
       (String.sub m 0 11)
   | Ok _ -> Alcotest.fail "unclosed paren parsed")

(* --- JSON emitter --------------------------------------------------- *)

let prop_json_float_round_trip =
  QCheck.Test.make ~count:500 ~name:"json: float repr round-trips exactly"
    QCheck.(float)
    (fun f ->
      match Runner.Json.to_string (Runner.Json.Float f) with
      | s when Float.is_nan f -> s = "\"nan\""
      | s when Float.is_integer f && Float.abs f < 1e15 ->
        (* integral floats print as integers *)
        float_of_string s = f
      | "\"inf\"" -> f = Float.infinity
      | "\"-inf\"" -> f = Float.neg_infinity
      | s -> float_of_string s = f)

let test_json_escaping () =
  Alcotest.(check string)
    "control chars + quotes" "\"a\\\"b\\\\c\\n\\u0001\""
    (Runner.Json.to_string (Runner.Json.Str "a\"b\\c\n\001"));
  Alcotest.(check string)
    "compound" {|{"xs":[1,2.5],"ok":true,"none":null}|}
    (Runner.Json.to_string
       (Runner.Json.Obj
          [ ("xs", Runner.Json.Arr [ Runner.Json.Int 1; Runner.Json.Float 2.5 ]);
            ("ok", Runner.Json.Bool true);
            ("none", Runner.Json.Null) ]))

(* --- Spec: parse, canonicalize, reject ------------------------------ *)

let test_spec_parses () =
  let s = spec () in
  Alcotest.(check int) "4 jobs" 4 (List.length s.Runner.Spec.jobs);
  Alcotest.(check (list string))
    "ids in file order" [ "s1"; "z1"; "w1"; "m1" ]
    (List.map (fun j -> j.Runner.Spec.id) s.Runner.Spec.jobs)

let test_spec_fingerprint_ignores_layout () =
  (* same batch, different whitespace / comments / field order: the
     fingerprint must not move, so a journal survives reformatting *)
  let reformatted =
    {|(batch (tech 07um)
       (defaults (jobs 1) (engine bp)) ; reordered fields
       (circuit c2 chain) (circuit a1 adder1)
       (job sweep s1 (wls 5 20) (circuit c2))
       (job size z1 (target 0.05) (circuit a1))
       (job worst-vectors w1 (top 2) (wl 10) (circuit a1))
       (job monte-carlo m1 (seed 7) (n 4) (wl 10) (circuit c2)))|}
  in
  match Runner.Spec.parse_string reformatted with
  | Error e -> Alcotest.fail e
  | Ok s2 ->
    Alcotest.(check string)
      "fingerprint is layout-independent"
      (Runner.Spec.fingerprint (spec ()))
      (Runner.Spec.fingerprint s2)

let test_spec_rejections () =
  let rejects what src =
    match Runner.Spec.parse_string src with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s was accepted" what
  in
  rejects "unknown field"
    "(batch (tech 07um) (circuit c chain) (job sweep s (circuit c) (bogus 1)))";
  rejects "duplicate job id"
    "(batch (tech 07um) (circuit c chain) (job sweep a (circuit c)) (job sweep a (circuit c)))";
  rejects "undeclared circuit"
    "(batch (tech 07um) (job sweep s (circuit nope)))";
  rejects "empty batch" "(batch (tech 07um))";
  rejects "bad job id" "(batch (tech 07um) (circuit c chain) (job sweep \"a b\" (circuit c)))"

(* --- Journal -------------------------------------------------------- *)

let test_journal_round_trip () =
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Runner.Journal.start ~path ~fingerprint:"abc123";
      Runner.Journal.append ~path ~id:"j1" ~json:{|{"id":"j1"}|};
      Runner.Journal.append ~path ~id:"j2" ~json:{|{"id":"j2"}|};
      (match Runner.Journal.load ~path ~fingerprint:"abc123" with
       | Ok entries ->
         Alcotest.(check (list (pair string string)))
           "entries in append order"
           [ ("j1", {|{"id":"j1"}|}); ("j2", {|{"id":"j2"}|}) ]
           entries
       | Error e -> Alcotest.fail e);
      (* wrong fingerprint: must refuse, not silently replay *)
      (match Runner.Journal.load ~path ~fingerprint:"other" with
       | Error _ -> ()
       | Ok _ -> Alcotest.fail "stale journal was accepted");
      (* a kill mid-append can tear the tail several ways; every one
         must be dropped without touching the intact prefix *)
      let base = In_channel.with_open_bin path In_channel.input_all in
      let with_tail tail check_name =
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc base;
            Out_channel.output_string oc tail);
        match Runner.Journal.load ~path ~fingerprint:"abc123" with
        | Ok entries ->
          Alcotest.(check int) check_name 2 (List.length entries)
        | Error e -> Alcotest.fail e
      in
      with_tail "j3 {\"tru" "legacy torn payload dropped";
      with_tail "j3 1" "torn length header dropped";
      with_tail "j3 12\n" "terminated torn header dropped";
      with_tail "j3 12 {\"id\"" "short framed payload dropped";
      with_tail "j3 12 {\"id\"\n" "terminated short payload dropped";
      with_tail "j3" "bare id dropped";
      with_tail "j3 8 {\"x\":1}" "unterminated framed record dropped";
      with_tail "j3 {\"id\":\"j3\"}\n" "unframed record dropped")

(* Exhaustive torn-tail fuzz: truncate a valid journal at every byte
   offset.  load must never raise, and whenever it answers Ok the
   entries must be a prefix of the untruncated journal's — truncation
   can lose records, never invent or corrupt them. *)
let test_journal_truncation_fuzz () =
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Runner.Journal.start ~path ~fingerprint:"fz";
      let full_entries =
        [ ("a", {|{"id":"a","status":"ok"}|});
          ("b", {|{"id":"b","err":"x y z"}|});
          ("c", {|{"id":"c","n":123}|}) ]
      in
      List.iter
        (fun (id, json) -> Runner.Journal.append ~path ~id ~json)
        full_entries;
      let full = In_channel.with_open_bin path In_channel.input_all in
      let is_prefix got =
        let rec go g f =
          match (g, f) with
          | [], _ -> true
          | gh :: gt, fh :: ft -> gh = fh && go gt ft
          | _ :: _, [] -> false
        in
        go got full_entries
      in
      for cut = 0 to String.length full do
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc (String.sub full 0 cut));
        match Runner.Journal.load ~path ~fingerprint:"fz" with
        | Ok entries ->
          if not (is_prefix entries) then
            Alcotest.failf "cut at %d: entries are not a prefix" cut
        | Error _ -> () (* truncated header: a refusal, never a raise *)
        | exception e ->
          Alcotest.failf "cut at %d: load raised %s" cut
            (Printexc.to_string e)
      done)

(* --- Catalog -------------------------------------------------------- *)

let test_catalog_round_trips () =
  let vec = ([ (2, 1); (2, 3) ], [ (2, 2); (2, 0) ]) in
  (match Runner.Catalog.parse_vector [ 2; 2 ] (Runner.Catalog.vector_string vec) with
   | Ok v -> Alcotest.(check bool) "vector round trip" true (v = vec)
   | Error e -> Alcotest.fail e);
  List.iter
    (fun name ->
      match Runner.Catalog.gate_of_name name with
      | Ok k -> Alcotest.(check string) "gate name" name (Netlist.Gate.name k)
      | Error e -> Alcotest.fail e)
    [ "inv"; "nand2"; "nor3"; "xor2"; "aoi21" ];
  List.iter
    (fun name ->
      match Runner.Catalog.objective_of_name name with
      | Ok o ->
        Alcotest.(check string)
          "objective name" name
          (Runner.Catalog.objective_name o)
      | Error e -> Alcotest.fail e)
    [ "degradation"; "delay"; "vx"; "current" ]

(* --- Exec: isolation and manifest shape ----------------------------- *)

let run_exn ?ctx ?journal ?fresh ?stop_after ?cancel ?on_fragment spec =
  match Runner.run ?ctx ?journal ?fresh ?stop_after ?cancel ?on_fragment spec with
  | Ok o -> o
  | Error e -> Alcotest.failf "runner failed: %s" e

let test_failure_isolation () =
  (* the bad vector makes s_bad fail; its neighbours must still run and
     the manifest must carry both statuses *)
  let src =
    {|(batch (tech 07um) (circuit c chain)
       (job sweep s_ok (circuit c) (wls 5))
       (job sweep s_bad (circuit c) (vectors "9,9->0,0") (wls 5))
       (job sweep s_also_ok (circuit c) (wls 20)))|}
  in
  let s =
    match Runner.Spec.parse_string src with
    | Ok s -> s
    | Error e -> Alcotest.failf "parse: %s" e
  in
  let o = run_exn s in
  Alcotest.(check int) "one failure" 1 o.Runner.failed;
  Alcotest.(check int) "two ok" 2 o.Runner.ok;
  Alcotest.(check bool) "complete" true (not o.Runner.interrupted);
  let mem probe =
    let np = String.length probe
    and hay = o.Runner.manifest in
    let rec find i =
      i + np <= String.length hay
      && (String.sub hay i np = probe || find (i + 1))
    in
    find 0
  in
  Alcotest.(check bool) "failed entry present" true
    (mem {|"id":"s_bad","kind":"sweep","circuit":"c","status":"failed"|});
  Alcotest.(check bool) "error message kept" true (mem {|"error":|});
  Alcotest.(check bool) "ok neighbour present" true
    (mem {|"id":"s_also_ok","kind":"sweep","circuit":"c","status":"ok"|})

(* Cancellation at job boundaries + fragment streaming: the serve
   daemon's contract.  A cancelled run reports interrupted, journals
   what it finished, and a resume completes to the uninterrupted
   manifest; on_fragment sees every manifest entry in order, replayed
   ones included. *)
let test_cancel_and_streaming () =
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let s = spec () in
      let reference = (run_exn s).Runner.manifest in
      (* pre-tripped token: nothing executes, nothing raises *)
      let c = Par.Cancel.create () in
      Par.Cancel.cancel c;
      let o = run_exn ~journal:path ~fresh:true ~cancel:c s in
      Alcotest.(check int) "cancelled before start" 0 o.Runner.executed;
      Alcotest.(check bool) "interrupted" true o.Runner.interrupted;
      (* resume with streaming: all fragments arrive, in manifest order,
         and the manifest matches an uninterrupted run byte for byte *)
      let seen = ref [] in
      let resumed =
        run_exn ~journal:path
          ~on_fragment:(fun ~id ~status:_ frag ->
            seen := (id, frag) :: !seen)
          s
      in
      Alcotest.(check string) "resume = reference" reference
        resumed.Runner.manifest;
      Alcotest.(check (list string))
        "streamed ids in manifest order"
        (List.map (fun j -> j.Runner.Spec.id) s.Runner.Spec.jobs)
        (List.rev_map fst !seen);
      List.iter
        (fun (_, frag) ->
          let np = String.length frag in
          let hay = resumed.Runner.manifest in
          let rec find i =
            i + np <= String.length hay
            && (String.sub hay i np = frag || find (i + 1))
          in
          Alcotest.(check bool) "fragment appears verbatim" true (find 0))
        !seen)

let test_runner_metrics () =
  let obs = Obs.create () in
  let ctx = Eval.Ctx.default |> Eval.Ctx.with_obs obs in
  let o = run_exn ~ctx (spec ()) in
  Alcotest.(check int) "all executed" o.Runner.total o.Runner.executed;
  let m = Obs.metrics obs in
  Alcotest.(check int)
    "total metric" o.Runner.total
    (Obs.Metrics.count m "runner.jobs.total");
  Alcotest.(check int)
    "executed metric" o.Runner.executed
    (Obs.Metrics.count m "runner.jobs.executed")

(* --- The headline property: interrupt + resume == uninterrupted ----- *)

(* The reference manifest is computed once per worker count; each QCheck
   case then interrupts after a random prefix and resumes.  [jobs] also
   exercises the shared Par pool, so run it at 1 and at the CI matrix
   value (MTSIZE_TEST_JOBS). *)
let reference_manifest jobs =
  let ctx = Eval.Ctx.default |> Eval.Ctx.with_jobs jobs in
  (run_exn ~ctx (spec ())).Runner.manifest

let prop_resume_bit_identical =
  let jobs_choices =
    List.sort_uniq compare [ 1; Fixtures.test_jobs () ]
  in
  let refs =
    lazy (List.map (fun j -> (j, reference_manifest j)) jobs_choices)
  in
  QCheck.Test.make ~count:12
    ~name:"runner: kill after random prefix + resume = uninterrupted"
    QCheck.(pair (int_bound 4) (int_bound 1000))
    (fun (stop_after, salt) ->
      List.for_all
        (fun (jobs, reference) ->
          let ctx = Eval.Ctx.default |> Eval.Ctx.with_jobs jobs in
          let path = temp_path () in
          Fun.protect
            ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
            (fun () ->
              ignore salt;
              let s = spec () in
              let first =
                run_exn ~ctx ~journal:path ~fresh:true ~stop_after s
              in
              let resumed = run_exn ~ctx ~journal:path s in
              (* the interrupted run stopped where told; the resumed one
                 replayed exactly the completed prefix *)
              first.Runner.executed = min stop_after first.Runner.total
              && resumed.Runner.replayed = first.Runner.executed
              && (stop_after >= first.Runner.total
                  || first.Runner.interrupted)
              && resumed.Runner.manifest = reference))
        (Lazy.force refs))

let suite =
  [ Alcotest.test_case "sexp round trip" `Quick test_sexp_round_trip;
    Alcotest.test_case "sexp errors carry line numbers" `Quick
      test_sexp_errors;
    QCheck_alcotest.to_alcotest prop_json_float_round_trip;
    Alcotest.test_case "json escaping" `Quick test_json_escaping;
    Alcotest.test_case "spec parses in file order" `Quick test_spec_parses;
    Alcotest.test_case "fingerprint ignores layout" `Quick
      test_spec_fingerprint_ignores_layout;
    Alcotest.test_case "spec rejects malformed batches" `Quick
      test_spec_rejections;
    Alcotest.test_case "journal round trip + torn tail" `Quick
      test_journal_round_trip;
    Alcotest.test_case "journal truncation fuzz (every offset)" `Quick
      test_journal_truncation_fuzz;
    Alcotest.test_case "catalog round trips" `Quick test_catalog_round_trips;
    Alcotest.test_case "per-job failure isolation" `Quick
      test_failure_isolation;
    Alcotest.test_case "cancel at job boundary + fragment streaming"
      `Quick test_cancel_and_streaming;
    Alcotest.test_case "runner obs metrics" `Quick test_runner_metrics;
    QCheck_alcotest.to_alcotest prop_resume_bit_identical ]
