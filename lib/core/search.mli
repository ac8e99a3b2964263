(** Worst-case-vector search for spaces too large to enumerate.

    The 3-bit adder's 4096 transitions can be swept exhaustively (§6.2),
    but the 8x8 multiplier's 2^32 cannot — the paper picks its vectors A
    and B by structural insight.  This module automates that hunt with a
    stochastic hill climb over bit flips, using the breakpoint simulator
    as the (cheap) oracle: exactly the "narrow down the vector space"
    role §5 assigns the tool.

    Entry points take [?ctx:Eval.Ctx.t] (engine, body effect, recovery
    policy, fast transient mode, stats, jobs, cache).  Work is
    distributed over [jobs] domains via
    [Par.Pool]: the outcome — best pair, score, evaluation count, and
    the stats counter totals — is identical whatever [jobs] is
    (candidates are assigned to workers statically, reduced in index
    order, and each restart of the hill climb owns an RNG stream
    derived from [(seed, restart)]).  With a cache in the context the
    oracle's repeated evaluations hit across candidates, restarts and
    even other modules' sweeps; hits replay the exact resilience
    counters of the original computation, so the totals are also
    independent of the cache. *)

type objective =
  | Max_degradation
      (** MTCMOS delay relative to the same transition's CMOS delay.
          Note: transitions whose CMOS delay is tiny (a barely-switching,
          glitchy output) produce huge ratios — the same tail behaviour
          Fig. 14 shows for the simulator.  Prefer {!Max_delay} when an
          absolute answer is wanted. *)
  | Max_delay        (** absolute MTCMOS delay *)
  | Max_vx           (** worst virtual-ground bounce *)
  | Max_current      (** worst total discharge current *)

type outcome = {
  pair : Vectors.pair;
  score : float;
  evaluations : int;  (** simulator calls spent *)
}

val score :
  ?ctx:Eval.Ctx.t ->
  Netlist.Circuit.t ->
  sleep:Breakpoint_sim.sleep_model ->
  objective ->
  Vectors.pair ->
  float
(** Evaluate one transition under the chosen objective (0 when nothing
    switches).  With [Eval.Spice_level] the transistor-level reference
    scores the transition under the context's recovery policy; a
    transient that fails even after recovery scores 0 and is recorded
    as a [Eval.Resilience.Scored_zero] skip — distinct from the honest
    nothing-switches zero, which records a plain success — so a hunt
    over thousands of vectors survives individual failures without
    conflating the two cases.
    For [Max_degradation] at [jobs >= 2] the MTCMOS and CMOS transients
    run on separate domains; both are always evaluated, so the value
    and the recorded diagnostics are jobs-invariant.
    (The context's [body_effect] only applies to the breakpoint oracle;
    the transistor-level engine always models it.) *)

val score_all :
  ?ctx:Eval.Ctx.t ->
  Netlist.Circuit.t ->
  sleep:Breakpoint_sim.sleep_model ->
  objective ->
  Vectors.pair list ->
  float array
(** Score a batch of transitions; element [i] is the score of the
    [i]-th pair.  [jobs] spreads the candidates over domains with
    per-worker stats accumulators merged in worker order, so the
    array and the counters are identical whatever [jobs] is. *)

val hill_climb :
  ?seed:int ->
  ?restarts:int ->
  ?max_iters:int ->
  ?ctx:Eval.Ctx.t ->
  Netlist.Circuit.t ->
  sleep:Breakpoint_sim.sleep_model ->
  widths:int list ->
  objective ->
  outcome
(** Multi-restart stochastic hill climb: from a random transition, try
    single-bit flips of the before/after words (first-improvement);
    restart when stuck.  Defaults: 8 restarts, 400 iterations each.
    Each restart draws from its own RNG stream seeded with
    [(seed, restart)] and restarts are the unit of parallelism, so the
    outcome is a pure function of [seed] — reproducible, and identical
    for every [jobs] and for any cache state.  Ties between restarts go
    to the lower restart index. *)

val exhaustive :
  ?ctx:Eval.Ctx.t ->
  Netlist.Circuit.t ->
  sleep:Breakpoint_sim.sleep_model ->
  widths:int list ->
  objective ->
  outcome
(** Ground truth for small spaces.  Scores every pair (in parallel when
    [jobs > 1]) and takes the argmax in enumeration order (first of
    equals wins, matching the sequential fold).
    @raise Invalid_argument when the space exceeds 2^22 pairs. *)
