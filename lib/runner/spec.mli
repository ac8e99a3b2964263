(** The declarative batch job-file: a set of named circuits and a list
    of jobs ([sweep], [size], [worst-vectors], [search],
    [characterize], [monte-carlo], [select]) over them, with global and per-job
    overrides of engine / worker count / Newton budget.

    Surface syntax (S-expressions, [;] comments):
    {v
    (batch
      (tech 07um)
      (defaults (engine bp) (jobs 2))
      (circuit a3 adder3)
      (job sweep s1 (circuit a3) (wls 2 10 50) (vectors "0,0->7,7"))
      (job size z1 (circuit a3) (target 0.05) (engine spice)))
    v}
    Field defaults are the values in {!Default}, which the
    corresponding mtsize subcommand flags read too, so the two agree by
    construction.  Jobs execute in file order through one shared evaluation context
    (see {!Exec}). *)

type overrides = {
  engine : Eval.Engine.t option;
  jobs : int option;
  newton_budget : int option;
}

val no_overrides : overrides

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
      loads : float list option;  (** [None] = library defaults *)
      ramps : float list option;
    }
  | Monte_carlo of { wl : float; n : int; seed : int; vector : string option }
  | Select of {
      delay_budget : float;  (** allowed arrival increase, fractional *)
      clusters : int;
      objective : Mtcmos.Selective.objective;
      passes : int;  (** refinement rounds ([max_passes]) *)
    }  (** the {!Mtcmos.Selective} co-optimizer *)

type job = {
  id : string;          (** unique; [[A-Za-z0-9_.-]+] *)
  circuit : string option;  (** named circuit reference *)
  kind : kind;
  overrides : overrides;
}

type t = {
  tech : string;
  defaults : overrides;
  circuits : (string * string) list;  (** id -> {!Catalog} circuit spec *)
  jobs : job list;
}

val kind_name : kind -> string

(** Field defaults, read by the parser and the mtsize flags alike. *)
module Default : sig
  val wls : float list
  val target : float
  val wl : float
  val top : int
  val sample : int
  val search_objective : Mtcmos.Search.objective
  val restarts : int
  val search_seed : int
  val max_iters : int
  val mc_n : int
  val mc_seed : int
  val delay_budget : float
  val clusters : int
  val passes : int
  val select_objective : Mtcmos.Selective.objective
end

val validate : overrides -> kind option -> (unit, string) result
(** The range checks of the overrides and, when given, of a kind's
    fields; the parser and the mtsize flags both apply it. *)

val parse_string : string -> (t, string) result
val parse_file : string -> (t, string) result

val to_canonical : t -> string
(** Deterministic rendering: comments, whitespace and field order
    inside a job do not change it, so it identifies {e what the batch
    computes}. *)

val fingerprint : t -> string
(** Hex digest of {!to_canonical} — stamped into the journal and the
    manifest so a stale checkpoint is never replayed against an edited
    job file. *)
