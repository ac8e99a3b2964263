(** The evaluation context: one record holding every knob that used to
    travel as the [?engine ?body_effect ?policy ?stats ?jobs] optional
    argument sprawl, plus the memoization cache and the observability
    handle.

    Analysis entry points ([Sizing], [Search], [Selective],
    [Characterize], [Variation]) take [?ctx:Ctx.t]. *)

type t = {
  engine : Engine.t;          (** delay engine (default {!Engine.Breakpoint}) *)
  body_effect : bool;         (** model the body effect (default [true]) *)
  policy : Spice.Recover.policy;  (** solver recovery policy *)
  fast : Spice.Engine.Opts.fast;
      (** fast transient path for spice-level evaluation (default
          [`Off]); enters the cache key, so cached results never cross
          modes *)
  stats : Resilience.t option;    (** resilience accumulator, if any *)
  jobs : int;                 (** worker domains for parallel sweeps *)
  cache : Cache.t option;     (** evaluation cache, if any *)
  obs : Obs.t;                (** observability (default [Obs.disabled]) *)
}

val default : t
(** Breakpoint engine, body effect on, [Spice.Recover.default], no
    stats, [jobs = 1], no cache, observability off — exactly the
    historical defaults of every entry point. *)

(** Builders, pipeline style:
    [Ctx.default |> Ctx.with_engine Spice_level |> Ctx.with_jobs 4]. *)

val with_engine : Engine.t -> t -> t
val with_fast : Spice.Engine.Opts.fast -> t -> t
val with_body_effect : bool -> t -> t
val with_policy : Spice.Recover.policy -> t -> t
val with_stats : Resilience.t -> t -> t
val with_jobs : int -> t -> t
val with_cache : Cache.t -> t -> t
val with_obs : Obs.t -> t -> t
val without_cache : t -> t
val without_stats : t -> t

val worker : t -> t
(** One worker domain's view of this context, for [Par.Pool] regions:
    a fresh resilience accumulator (when the caller tracks stats), an
    {!Obs.shard} of the observability handle, and [jobs] pinned to 1 so
    nested entry points stay sequential inside the worker.  Fold it
    back with {!merge_worker} in worker order. *)

val merge_worker : into:t -> t -> unit
(** Merge a {!worker} view's resilience counters and observability
    shard back into the parent context (call in worker order — this is
    the [~merge] body of every [Par.Pool.map_stateful] call site). *)

val for_job : t -> t * Resilience.t
(** One batch job's view of this context: a fresh resilience
    accumulator (mirrored into the context's observability registry)
    replaces [stats], everything else — cache, obs, worker budget — is
    shared.  Returns the accumulator so the caller can report per-job
    solver health.  The hook {!Runner} uses to isolate jobs. *)

val override :
  ?engine:Engine.t ->
  ?body_effect:bool ->
  ?policy:Spice.Recover.policy ->
  ?fast:Spice.Engine.Opts.fast ->
  ?stats:Resilience.t ->
  ?jobs:int ->
  ?cache:Cache.t ->
  ?obs:Obs.t ->
  t ->
  t
(** Replace only the fields given. *)
