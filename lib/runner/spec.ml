(* The declarative batch job-file.  Surface syntax (S-expressions,
   [;] comments):

     (batch
       (tech 07um)
       (defaults (engine bp) (jobs 2) (newton-budget 0))
       (circuit a3 adder3)
       (circuit u1 "my_block.net")
       (job sweep s1 (circuit a3) (wls 2 10 50) (vectors "0,0->7,7"))
       (job size z1 (circuit a3) (target 0.05) (engine spice))
       (job worst-vectors w1 (circuit a3) (wl 10) (top 5) (sample 200))
       (job search h1 (circuit a3) (wl 10) (objective degradation)
            (restarts 4) (seed 17) (max-iters 200))
       (job characterize c1 (gate nand2) (loads 1e-14 5e-14) (ramps 2e-11))
       (job monte-carlo m1 (circuit a3) (wl 10) (n 32) (seed 7)))

   Field defaults live in [Default], which the mtsize subcommand flags
   read too.  [defaults] applies to every job; a job-level (engine ...)
   / (jobs ...) / (newton-budget ...) overrides it.  Jobs execute in file
   order through one shared evaluation context (see Exec). *)

type overrides = {
  engine : Eval.Engine.t option;
  jobs : int option;
  newton_budget : int option;
}

let no_overrides = { engine = None; jobs = None; newton_budget = None }

type kind =
  | Sweep of { wls : float list; vectors : string list }
  | Size of { target : float; vectors : string list }
  | Worst_vectors of { wl : float; top : int; sample : int }
  | Search of {
      wl : float;
      objective : Mtcmos.Search.objective;
      restarts : int;
      seed : int;
      max_iters : int;
    }
  | Characterize of {
      gate : Netlist.Gate.kind;
      loads : float list option;
      ramps : float list option;
    }
  | Monte_carlo of { wl : float; n : int; seed : int; vector : string option }
  | Select of {
      delay_budget : float;
      clusters : int;
      objective : Mtcmos.Selective.objective;
      passes : int;
    }

type job = {
  id : string;
  circuit : string option; (* named circuit reference *)
  kind : kind;
  overrides : overrides;
}

type t = {
  tech : string;
  defaults : overrides;
  circuits : (string * string) list; (* id -> Catalog circuit spec *)
  jobs : job list;
}

let kind_name = function
  | Sweep _ -> "sweep"
  | Size _ -> "size"
  | Worst_vectors _ -> "worst-vectors"
  | Search _ -> "search"
  | Characterize _ -> "characterize"
  | Monte_carlo _ -> "monte-carlo"
  | Select _ -> "select"

module Default = struct
  let wls = [ 2.0; 5.0; 10.0; 20.0; 50.0; 100.0 ]
  let target = 0.05
  let wl = 10.0
  let top = 10
  let sample = 500
  let search_objective = Mtcmos.Search.Max_degradation
  let restarts = 8
  let search_seed = 17
  let max_iters = 400
  let mc_n = 32
  let mc_seed = 99
  let delay_budget = 0.1
  let clusters = 4
  let passes = 2
  let select_objective = Mtcmos.Selective.Leakage
end

let validate (ov : overrides) kind =
  match (ov, kind) with
  | { jobs = Some j; _ }, _ when j < 1 ->
    Error (Printf.sprintf "(jobs %d): must be >= 1" j)
  | { newton_budget = Some n; _ }, _ when n < 0 ->
    Error (Printf.sprintf "(newton-budget %d): must be >= 0" n)
  | _, Some (Monte_carlo { n; _ }) when n < 1 -> Error "(n ...): must be >= 1"
  | _, Some (Select { delay_budget; _ }) when delay_budget < 0.0 ->
    Error "(delay-budget ...): must be >= 0"
  | _, Some (Select { clusters; _ }) when clusters < 1 ->
    Error "(clusters ...): must be >= 1"
  | _, Some (Select { passes; _ }) when passes < 0 ->
    Error "(passes ...): must be >= 0"
  | _ -> Ok ()

(* ---- parsing ----------------------------------------------------- *)

let ( let* ) = Result.bind

let id_ok s =
  s <> ""
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' -> true
         | _ -> false)
       s

(* a field form (name arg...) -> (name, args) *)
let field_of_sexp = function
  | Sexp.List (Sexp.Atom name :: args) -> Ok (name, args)
  | s -> Error (Printf.sprintf "expected a (field ...) form, got %s" (Sexp.to_string s))

let atom1 what = function
  | [ Sexp.Atom a ] -> Ok a
  | args ->
    Error
      (Printf.sprintf "(%s ...) wants exactly one atom, got %d" what
         (List.length args))

let float1 what args =
  let* a = atom1 what args in
  match float_of_string_opt a with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "(%s %s): not a number" what a)

let int1 what args =
  let* a = atom1 what args in
  match int_of_string_opt a with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "(%s %s): not an integer" what a)

let floats what args =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | Sexp.Atom a :: rest ->
      (match float_of_string_opt a with
       | Some f -> go (f :: acc) rest
       | None -> Error (Printf.sprintf "(%s ...): %S is not a number" what a))
    | Sexp.List _ :: _ ->
      Error (Printf.sprintf "(%s ...): expected numbers" what)
  in
  if args = [] then Error (Printf.sprintf "(%s): empty list" what)
  else go [] args

let strings what args =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | Sexp.Atom a :: rest -> go (a :: acc) rest
    | Sexp.List _ :: _ ->
      Error (Printf.sprintf "(%s ...): expected strings" what)
  in
  go [] args

(* fold override fields out of a field list, returning the rest *)
let split_overrides fields =
  let rec go ov rest = function
    | [] -> Ok (ov, List.rev rest)
    | ("engine", args) :: tl ->
      let* a = atom1 "engine" args in
      let* e = Eval.Engine.of_string a in
      go { ov with engine = Some e } rest tl
    | ("jobs", args) :: tl ->
      let* j = int1 "jobs" args in
      go { ov with jobs = Some j } rest tl
    | ("newton-budget", args) :: tl ->
      let* n = int1 "newton-budget" args in
      go { ov with newton_budget = Some n } rest tl
    | f :: tl -> go ov (f :: rest) tl
  in
  go no_overrides [] fields

let get fields name = List.assoc_opt name fields

let get_float fields name ~default =
  match get fields name with
  | None -> Ok default
  | Some args -> float1 name args

let get_int fields name ~default =
  match get fields name with
  | None -> Ok default
  | Some args -> int1 name args

let get_floats_opt fields name =
  match get fields name with
  | None -> Ok None
  | Some args ->
    let* l = floats name args in
    Ok (Some l)

let known fields allowed ~kind =
  match
    List.find_opt (fun (name, _) -> not (List.mem name allowed)) fields
  with
  | Some (name, _) ->
    Error (Printf.sprintf "job kind %s: unknown field (%s ...)" kind name)
  | None -> Ok ()

let circuit_ref fields =
  match get fields "circuit" with
  | None -> Ok None
  | Some args ->
    let* a = atom1 "circuit" args in
    Ok (Some a)

let parse_kind kname fields =
  match kname with
  | "sweep" ->
    let* () =
      known fields [ "circuit"; "wls"; "vectors" ] ~kind:kname
    in
    let* wls =
      match get fields "wls" with
      | None -> Ok Default.wls
      | Some args -> floats "wls" args
    in
    let* vectors =
      match get fields "vectors" with
      | None -> Ok []
      | Some args -> strings "vectors" args
    in
    Ok (Sweep { wls; vectors })
  | "size" ->
    let* () = known fields [ "circuit"; "target"; "vectors" ] ~kind:kname in
    let* target = get_float fields "target" ~default:Default.target in
    let* vectors =
      match get fields "vectors" with
      | None -> Ok []
      | Some args -> strings "vectors" args
    in
    Ok (Size { target; vectors })
  | "worst-vectors" ->
    let* () =
      known fields [ "circuit"; "wl"; "top"; "sample" ] ~kind:kname
    in
    let* wl = get_float fields "wl" ~default:Default.wl in
    let* top = get_int fields "top" ~default:Default.top in
    let* sample = get_int fields "sample" ~default:Default.sample in
    Ok (Worst_vectors { wl; top; sample })
  | "search" ->
    let* () =
      known fields
        [ "circuit"; "wl"; "objective"; "restarts"; "seed"; "max-iters" ]
        ~kind:kname
    in
    let* wl = get_float fields "wl" ~default:Default.wl in
    let* objective =
      match get fields "objective" with
      | None -> Ok Default.search_objective
      | Some args ->
        let* a = atom1 "objective" args in
        Catalog.objective_of_name a
    in
    let* restarts = get_int fields "restarts" ~default:Default.restarts in
    let* seed = get_int fields "seed" ~default:Default.search_seed in
    let* max_iters = get_int fields "max-iters" ~default:Default.max_iters in
    Ok (Search { wl; objective; restarts; seed; max_iters })
  | "characterize" ->
    let* () = known fields [ "gate"; "loads"; "ramps" ] ~kind:kname in
    let* gate =
      match get fields "gate" with
      | None -> Error "job kind characterize: missing (gate ...)"
      | Some args ->
        let* a = atom1 "gate" args in
        Catalog.gate_of_name a
    in
    let* loads = get_floats_opt fields "loads" in
    let* ramps = get_floats_opt fields "ramps" in
    Ok (Characterize { gate; loads; ramps })
  | "monte-carlo" ->
    let* () =
      known fields [ "circuit"; "wl"; "n"; "seed"; "vector" ] ~kind:kname
    in
    let* wl = get_float fields "wl" ~default:Default.wl in
    let* n = get_int fields "n" ~default:Default.mc_n in
    let* seed = get_int fields "seed" ~default:Default.mc_seed in
    let* vector =
      match get fields "vector" with
      | None -> Ok None
      | Some args ->
        let* a = atom1 "vector" args in
        Ok (Some a)
    in
    Ok (Monte_carlo { wl; n; seed; vector })
  | "select" ->
    let* () =
      known fields
        [ "circuit"; "delay-budget"; "clusters"; "objective"; "passes" ]
        ~kind:kname
    in
    let* delay_budget =
      get_float fields "delay-budget" ~default:Default.delay_budget
    in
    let* clusters = get_int fields "clusters" ~default:Default.clusters in
    let* passes = get_int fields "passes" ~default:Default.passes in
    let* objective =
      match get fields "objective" with
      | None -> Ok Default.select_objective
      | Some args ->
        let* a = atom1 "objective" args in
        Catalog.select_objective_of_name a
    in
    Ok (Select { delay_budget; clusters; objective; passes })
  | other ->
    Error
      (Printf.sprintf
         "unknown job kind %S (sweep | size | worst-vectors | search | \
          characterize | monte-carlo | select)"
         other)

let needs_circuit = function
  | Sweep _ | Size _ | Worst_vectors _ | Search _ | Monte_carlo _ | Select _
    -> true
  | Characterize _ -> false

let parse_job = function
  | Sexp.Atom kname :: Sexp.Atom id :: field_sexps ->
    if not (id_ok id) then
      Error
        (Printf.sprintf
           "job id %S: only letters, digits, '_', '-', '.' allowed" id)
    else
      let* fields =
        List.fold_left
          (fun acc s ->
            let* acc = acc in
            let* f = field_of_sexp s in
            Ok (f :: acc))
          (Ok []) field_sexps
      in
      let fields = List.rev fields in
      let* overrides, fields = split_overrides fields in
      let* circuit = circuit_ref fields in
      let fields = List.remove_assoc "circuit" fields in
      let* kind = parse_kind kname fields in
      let* () = validate overrides (Some kind) in
      (match (needs_circuit kind, circuit) with
       | true, None ->
         Error
           (Printf.sprintf "job %s %s: missing (circuit ...) reference"
              kname id)
       | _ -> Ok { id; circuit; kind; overrides })
  | _ -> Error "job form wants (job KIND ID field...)"

let parse_forms forms =
  let rec go spec = function
    | [] -> Ok spec
    | Sexp.List (Sexp.Atom "tech" :: args) :: rest ->
      let* t = atom1 "tech" args in
      go { spec with tech = t } rest
    | Sexp.List (Sexp.Atom "defaults" :: field_sexps) :: rest ->
      let* fields =
        List.fold_left
          (fun acc s ->
            let* acc = acc in
            let* f = field_of_sexp s in
            Ok (f :: acc))
          (Ok []) field_sexps
      in
      let* defaults, leftover = split_overrides (List.rev fields) in
      (match leftover with
       | [] ->
         let* () = validate defaults None in
         go { spec with defaults } rest
       | (name, _) :: _ ->
         Error (Printf.sprintf "(defaults ...): unknown field (%s ...)" name))
    | Sexp.List [ Sexp.Atom "circuit"; Sexp.Atom id; Sexp.Atom cspec ]
      :: rest ->
      if not (id_ok id) then
        Error (Printf.sprintf "circuit id %S: bad identifier" id)
      else if List.mem_assoc id spec.circuits then
        Error (Printf.sprintf "duplicate circuit id %S" id)
      else go { spec with circuits = spec.circuits @ [ (id, cspec) ] } rest
    | Sexp.List (Sexp.Atom "job" :: body) :: rest ->
      let* job = parse_job body in
      if List.exists (fun j -> j.id = job.id) spec.jobs then
        Error (Printf.sprintf "duplicate job id %S" job.id)
      else go { spec with jobs = spec.jobs @ [ job ] } rest
    | form :: _ ->
      Error
        (Printf.sprintf
           "unknown form %s (want tech | defaults | circuit | job)"
           (Sexp.to_string form))
  in
  let* spec =
    go { tech = "07um"; defaults = no_overrides; circuits = []; jobs = [] }
      forms
  in
  (* every referenced circuit must be declared *)
  let* () =
    List.fold_left
      (fun acc j ->
        let* () = acc in
        match j.circuit with
        | Some c when not (List.mem_assoc c spec.circuits) ->
          Error
            (Printf.sprintf "job %s: undeclared circuit %S" j.id c)
        | _ -> Ok ())
      (Ok ()) spec.jobs
  in
  if spec.jobs = [] then Error "job file declares no jobs" else Ok spec

let of_sexps = function
  | [ Sexp.List (Sexp.Atom "batch" :: forms) ] -> parse_forms forms
  | [ _ ] -> Error "top-level form must be (batch ...)"
  | l ->
    Error
      (Printf.sprintf "expected exactly one (batch ...) form, got %d"
         (List.length l))

let parse_string src =
  let* forms = Sexp.parse_string src in
  of_sexps forms

let parse_file path =
  let* forms = Sexp.parse_file path in
  match of_sexps forms with
  | Ok _ as ok -> ok
  | Error e -> Error (Printf.sprintf "%s: %s" path e)

(* ---- canonical rendering / fingerprint --------------------------- *)

let sexp_of_overrides ov =
  List.concat
    [ (match ov.engine with
       | None -> []
       | Some e ->
         [ Sexp.List [ Sexp.Atom "engine"; Sexp.Atom (Eval.Engine.to_string e) ] ]);
      (match ov.jobs with
       | None -> []
       | Some j ->
         [ Sexp.List [ Sexp.Atom "jobs"; Sexp.Atom (string_of_int j) ] ]);
      (match ov.newton_budget with
       | None -> []
       | Some n ->
         [ Sexp.List
             [ Sexp.Atom "newton-budget"; Sexp.Atom (string_of_int n) ] ]) ]

let num f = Sexp.Atom (Json.float_repr f)

let sexp_of_kind = function
  | Sweep { wls; vectors } ->
    [ Sexp.List (Sexp.Atom "wls" :: List.map num wls);
      Sexp.List (Sexp.Atom "vectors" :: List.map (fun v -> Sexp.Atom v) vectors) ]
  | Size { target; vectors } ->
    [ Sexp.List [ Sexp.Atom "target"; num target ];
      Sexp.List (Sexp.Atom "vectors" :: List.map (fun v -> Sexp.Atom v) vectors) ]
  | Worst_vectors { wl; top; sample } ->
    [ Sexp.List [ Sexp.Atom "wl"; num wl ];
      Sexp.List [ Sexp.Atom "top"; Sexp.Atom (string_of_int top) ];
      Sexp.List [ Sexp.Atom "sample"; Sexp.Atom (string_of_int sample) ] ]
  | Search { wl; objective; restarts; seed; max_iters } ->
    [ Sexp.List [ Sexp.Atom "wl"; num wl ];
      Sexp.List
        [ Sexp.Atom "objective"; Sexp.Atom (Catalog.objective_name objective) ];
      Sexp.List [ Sexp.Atom "restarts"; Sexp.Atom (string_of_int restarts) ];
      Sexp.List [ Sexp.Atom "seed"; Sexp.Atom (string_of_int seed) ];
      Sexp.List [ Sexp.Atom "max-iters"; Sexp.Atom (string_of_int max_iters) ] ]
  | Characterize { gate; loads; ramps } ->
    Sexp.List [ Sexp.Atom "gate"; Sexp.Atom (Netlist.Gate.name gate) ]
    :: List.concat
         [ (match loads with
            | None -> []
            | Some l -> [ Sexp.List (Sexp.Atom "loads" :: List.map num l) ]);
           (match ramps with
            | None -> []
            | Some l -> [ Sexp.List (Sexp.Atom "ramps" :: List.map num l) ]) ]
  | Monte_carlo { wl; n; seed; vector } ->
    [ Sexp.List [ Sexp.Atom "wl"; num wl ];
      Sexp.List [ Sexp.Atom "n"; Sexp.Atom (string_of_int n) ];
      Sexp.List [ Sexp.Atom "seed"; Sexp.Atom (string_of_int seed) ] ]
    @ (match vector with
       | None -> []
       | Some v -> [ Sexp.List [ Sexp.Atom "vector"; Sexp.Atom v ] ])
  | Select { delay_budget; clusters; objective; passes } ->
    [ Sexp.List [ Sexp.Atom "delay-budget"; num delay_budget ];
      Sexp.List [ Sexp.Atom "clusters"; Sexp.Atom (string_of_int clusters) ];
      Sexp.List
        [ Sexp.Atom "objective";
          Sexp.Atom (Mtcmos.Selective.objective_name objective) ];
      Sexp.List [ Sexp.Atom "passes"; Sexp.Atom (string_of_int passes) ] ]

let to_canonical t =
  let job j =
    Sexp.List
      (Sexp.Atom "job"
       :: Sexp.Atom (kind_name j.kind)
       :: Sexp.Atom j.id
       :: ((match j.circuit with
            | None -> []
            | Some c -> [ Sexp.List [ Sexp.Atom "circuit"; Sexp.Atom c ] ])
           @ sexp_of_kind j.kind
           @ sexp_of_overrides j.overrides))
  in
  Sexp.to_string
    (Sexp.List
       (Sexp.Atom "batch"
        :: Sexp.List [ Sexp.Atom "tech"; Sexp.Atom t.tech ]
        :: Sexp.List (Sexp.Atom "defaults" :: sexp_of_overrides t.defaults)
        :: (List.map
              (fun (id, c) ->
                Sexp.List
                  [ Sexp.Atom "circuit"; Sexp.Atom id; Sexp.Atom c ])
              t.circuits
            @ List.map job t.jobs)))

let fingerprint t = Digest.to_hex (Digest.string (to_canonical t))
