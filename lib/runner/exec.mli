(** Batch execution over one shared {!Eval.Ctx}.

    Jobs run in file order through a single evaluation context — one
    cache, one observability registry, one worker-pool budget — so
    later jobs reuse earlier jobs' solver work.  Per-job failures are
    isolated: an exception becomes a ["failed"] manifest entry and the
    batch continues.  With a [?journal] path, each completed job is
    checkpointed and a re-run replays completed fragments verbatim,
    producing a manifest byte-identical to an uninterrupted run.
    {!compute} is the one implementation of the job kinds; the mtsize
    analysis subcommands call it too. *)

type status = Clean | Degraded | Failed

val status_string : status -> string
(** ["ok"], ["degraded"], ["failed"]. *)

type outcome = {
  manifest : string;
      (** machine-readable JSON document; a pure function of the spec
          (no timestamps, worker counts, or cache statistics), hence
          suitable for golden comparison across [--jobs] values and
          cache states *)
  total : int;
  executed : int;  (** jobs run in this invocation *)
  replayed : int;  (** jobs served verbatim from the journal *)
  ok : int;
  degraded : int;  (** completed, but the recovery policy skipped work *)
  failed : int;
  interrupted : bool;  (** stopped early by [?stop_after] *)
}

(** A job's typed result: the library records its kind computes. *)
type result =
  | Measurements of Mtcmos.Sizing.measurement list
  | Sized of {
      target : float;
      wl : float;
      measurement : Mtcmos.Sizing.measurement;
    }
  | Ranked of { pairs_examined : int; ranked : Mtcmos.Vectors.ranking list }
  | Found of Mtcmos.Search.outcome
  | Points of Mtcmos.Characterize.point list
  | Mc_stats of Mtcmos.Variation.stats
  | Selected of Mtcmos.Selective.result

val compute :
  Eval.Ctx.t -> Device.Tech.t -> Catalog.bench_circuit option -> Spec.kind ->
  result
(** One job body ([None] circuit only for [characterize]).
    @raise Failure on a per-job error: a bad vector, no feasible size,
    or an infeasible select budget. *)

val job_ctx : Eval.Ctx.t -> Spec.overrides -> Spec.overrides -> Eval.Ctx.t
(** [job_ctx base defaults overrides]: engine, jobs and Newton budget
    from [overrides], else [defaults], else [base]. *)

val run :
  ?ctx:Eval.Ctx.t ->
  ?journal:string ->
  ?fresh:bool ->
  ?stop_after:int ->
  ?cancel:Par.Cancel.t ->
  ?on_fragment:(id:string -> status:status -> string -> unit) ->
  Spec.t ->
  (outcome, string) Stdlib.result
(** [run spec] executes every job.  [?journal] checkpoints each
    completed job and resumes from an existing compatible journal;
    [~fresh:true] ignores (and truncates) any existing journal.
    [?stop_after:k] stops before executing the [k+1]-th {e fresh} job —
    the test hook that simulates an interrupt.

    [?cancel] is polled at job boundaries only: a job in flight always
    completes, is journaled, and counts; the run then stops with
    [interrupted = true] (it does not raise).  Combined with
    [?journal], a cancelled batch is indistinguishable from a crashed
    one — a later run resumes it.  This is how the serve daemon
    enforces per-request deadlines without ever tearing a manifest.

    [?on_fragment] streams each fragment as it enters the manifest, in
    manifest order — replayed entries too, so a consumer reconstructs
    the full document.  For fresh jobs it fires {e after} the journal
    append: anything a consumer has seen is durably checkpointed.

    [Error _] is a spec-level problem (bad tech/circuit declaration,
    incompatible journal); per-job errors never surface here. *)
