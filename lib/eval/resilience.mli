(** Per-sweep resilience accounting for transistor-level flows.

    A sizing sweep runs many (vector x W/L) transient analyses; with
    the Result-typed engine API a failed analysis degrades to a skipped
    (or estimated) sample instead of aborting the sweep.  This
    accumulator records what happened so the run can end with an honest
    report: analyses attempted / converged directly / rescued by a
    recovery strategy / skipped, which strategies fired, and each
    skipped vector's structured diagnosis.

    Under parallel sweeps ([?jobs] on the sizing/search/characterise
    entry points) each worker domain records into its own accumulator;
    the workers' accumulators are folded into the caller's with
    {!merge_into} in worker order after the join, so the counter totals
    equal the sequential run's exactly and the merge order never
    depends on scheduling.

    The evaluation cache ({!Cache}) snapshots the deltas a computation
    recorded and replays them with {!merge_into} on every hit, so the
    totals are also identical with the cache on or off. *)

type skip_kind =
  | Dropped
      (** the sample was lost entirely *)
  | Estimated
      (** the sample was replaced by the breakpoint-simulator
          estimate *)
  | Scored_zero
      (** a search candidate was forced to score 0.0 — distinguishes
          "the transient failed after recovery" from an honest
          nothing-switches zero (which records nothing) *)

type t = {
  mutable attempted : int;
  mutable direct : int;
  mutable recovered : int;
  mutable skipped : int;
  mutable fallback : int;     (** {!Estimated} skips *)
  mutable scored_zero : int;  (** {!Scored_zero} skips *)
  mutable strategies : (string * int) list;
  mutable skips : (string * skip_kind * Spice.Diag.failure) list;
  mutable obs : Obs.t;
      (** registry mirror, [Obs.disabled] unless {!attach_obs} was
          called (only ever on a run's root accumulator) *)
}

val create : unit -> t

val attach_obs : t -> Obs.t -> unit
(** Mirror every count this accumulator receives — directly or via
    {!merge_into} — into the [eval.resilience.*] registry metrics.
    Attach only to the {e root} accumulator of a run: worker shards and
    the cache's per-computation accumulators must stay unattached so a
    count reaches the registry exactly once (when it is folded into the
    root).  With that discipline the registry totals are cache- and
    jobs-invariant, exactly like the record's own counters. *)

val record_success : ?stats:t -> Spice.Diag.telemetry -> unit
(** Classify a finished analysis as direct or recovered from its
    telemetry.  No-op when [stats] is absent (callers thread their
    optional accumulator straight through). *)

val record_skip :
  ?stats:t -> ?kind:skip_kind -> label:string -> Spice.Diag.failure -> unit
(** Record a failed analysis.  [kind] (default {!Dropped}) says what
    became of the sample; {!Estimated} marks a switch-level
    replacement, {!Scored_zero} a search candidate pinned to 0. *)

val merge_into : into:t -> t -> unit
(** Add every counter of the second accumulator into [into] and append
    its skip list.  Used to fold worker-domain accumulators back into
    the caller's, in worker order. *)

val pp_report : Format.formatter -> t -> unit
val report_string : t -> string
