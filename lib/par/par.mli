(** Deterministic Domain-based fan-out for embarrassingly parallel
    sweeps.

    Every hot loop in this codebase — W/L sweeps, worst-vector hunts,
    characterisation grids, Monte-Carlo sampling — evaluates thousands
    of independent simulations.  {!Pool} spreads an index range over
    OCaml 5 domains with a schedule that is {e deterministic by
    construction}:

    - the range is cut into fixed chunks; chunk [c] covers indices
      [c * chunk .. min n ((c+1) * chunk) - 1];
    - chunks are assigned to workers statically (worker [w] owns every
      chunk [c] with [c mod jobs = w]), so which domain computes which
      index never depends on timing;
    - results are written into per-chunk slots and concatenated in
      index order, so the output equals the sequential run bit for bit
      whatever [jobs] is;
    - per-worker states (e.g. resilience/telemetry accumulators) are
      handed back to the caller's domain and merged in worker order,
      so counter totals are exact and every run with the same [jobs]
      merges in the same order;
    - a worker exception aborts the sweep and is re-raised in the
      caller (never a hang); when several workers fail, the exception
      of the lowest-numbered worker wins, deterministically.

    The pool is dependency-free (no domainslib): plain [Domain.spawn]
    / [Domain.join], one spawn per worker per call.  Calls are
    independent — there is no persistent pool to shut down. *)

(** Cooperative cancellation tokens.

    A token is an atomic flag plus an optional absolute wall-clock
    deadline ([Unix.gettimeofday] seconds).  Holders poll it only at
    safe points — {!Pool} between chunks, the batch runner between
    jobs, the serve daemon between requests — so cancellation never
    tears a result: a cancelled region either completes bit-identically
    to an uncancelled run or raises {!Cancel.Cancelled} having
    published nothing. *)
module Cancel : sig
  type t

  exception Cancelled

  val create : ?deadline:float -> unit -> t
  (** A fresh token; with [?deadline] it auto-cancels once
      [Unix.gettimeofday () > deadline]. *)

  val cancel : t -> unit
  (** Set the flag.  Idempotent, safe from any domain or thread. *)

  val cancelled : t -> bool
  (** Flag set, or deadline passed (which latches the flag). *)

  val check : t -> unit
  (** @raise Cancelled when {!cancelled}. *)
end

module Pool : sig
  val default_jobs : unit -> int
  (** [Domain.recommended_domain_count ()] — what [?jobs] defaults to
      at the CLI surface. *)

  val resolve_jobs : int option -> int
  (** [resolve_jobs None] is {!default_jobs} (so a single-core runtime
      degrades to the sequential path); [resolve_jobs (Some j)] is [j].
      @raise Invalid_argument when [j < 1]. *)

  val map :
    ?obs:Obs.t ->
    ?jobs:int ->
    ?chunk:int ->
    ?cancel:Cancel.t ->
    int ->
    (int -> 'a) ->
    'a array
  (** [map n f] is [[| f 0; ...; f (n-1) |]], computed on [jobs]
      domains (default 1 — parallelism is strictly opt-in for library
      callers).  [chunk] is the fixed chunk length (default: [n]
      divided over 4 chunks per worker, at least 1).  Deterministic:
      the result is identical for every [jobs]/[chunk] choice.
      [cancel] is polled between chunks; see {!map_stateful}. *)

  val map_list :
    ?obs:Obs.t ->
    ?jobs:int ->
    ?chunk:int ->
    ?cancel:Cancel.t ->
    ('a -> 'b) ->
    'a list ->
    'b list
  (** [map_list f xs] = [List.map f xs], parallelised like {!map} and
      equally deterministic. *)

  val map_reduce :
    ?jobs:int ->
    ?chunk:int ->
    n:int ->
    map:(int -> 'a) ->
    reduce:('acc -> 'a -> 'acc) ->
    init:'acc ->
    'acc
  (** Fold the {!map} results in index order — [reduce] need not be
      commutative; it always sees [f 0, f 1, ...] left to right. *)

  val map_reduce_obs :
    obs:Obs.t ->
    ?jobs:int ->
    ?chunk:int ->
    n:int ->
    map:(int -> 'a) ->
    reduce:('acc -> 'a -> 'acc) ->
    init:'acc ->
    'acc
  (** {!map_reduce} with pool self-metrics recorded into [obs] (see
      {!map_stateful}).  A separate function with a {e required} [obs]
      label rather than an optional on {!map_reduce}: with every
      argument labelled, an unsupplied trailing [?obs] would never be
      erased at the call site — partial application would silently
      yield a closure instead of running.  This is the observability
      path PR 4 dropped, restored without that trap. *)

  val map_stateful :
    ?obs:Obs.t ->
    ?jobs:int ->
    ?chunk:int ->
    ?cancel:Cancel.t ->
    create:(unit -> 'w) ->
    merge:('w -> unit) ->
    int ->
    ('w -> int -> 'a) ->
    'a array
  (** The general form: each worker domain gets its own state from
      [create ()] (run inside that domain), every index it owns is
      evaluated with that state, and after all workers have joined,
      [merge] is called on each state {e in worker order} in the
      caller's domain.  This is how sweeps thread
      [Eval.Resilience] / [Spice.Diag] accumulators through a
      parallel region without locks: worker-local recording, exact
      merged totals.

      [obs] (default [Obs.disabled], on every function above too)
      records the pool's self-metrics — [par.pool.calls], the
      [par.jobs] high-water gauge, and per-worker
      [par.worker.<w>.tasks] / [par.worker.<w>.busy_s] — plus a
      ["par.pool"] span when tracing.  Workers time and count their
      own chunks at disjoint indices; the counters are folded into the
      registry in worker order after the join.  These [par.*] metrics
      describe the schedule itself and are the one metric family that
      legitimately varies with [jobs]. *)

  (** {2 Cancellation semantics}

      [?cancel] (default: never) is polled {e between} chunks: a chunk
      in flight always runs to completion, workers launch no further
      chunks once the token trips, and after every domain has joined
      the call raises {!Cancel.Cancelled}.  No partial result array
      escapes, worker states are still merged (so observability shards
      are not lost), and a call that finished all chunks before the
      token tripped still raises — the caller asked for the region to
      be abandoned.  A worker exception takes precedence over
      cancellation, under the usual lowest-worker rule. *)
end
