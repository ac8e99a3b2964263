(** DC and transient analysis — the repo's SPICE substitute.

    Newton–Raphson over the MNA system with per-step voltage limiting
    and an explicit recovery-policy ladder ({!Recover}) for hard solves:
    gmin stepping and source stepping for DC, step halving /
    Backward-Euler fallback / transient gmin ramping / DC re-seeding for
    rejected transient steps.

    Every analysis knob lives in one typed options record, {!Opts.t},
    given to {!prepare}; each analysis on the prepared context runs
    under those options, and no analysis call overrides them.  The
    [fast] option selects the fast transient path and with it the step
    rule: [`Off] (the default, bit-identical to the historical engine)
    and [`Reduce] take fixed steps; [`Reduce] also eliminates
    series-RC chain interiors from the unknown vector (exact —
    interior waveforms are recovered by back-substitution), and
    [`Reduce_bypass] additionally skips model re-evaluation for
    quiescent transistors and drives the time step with a
    local-truncation-error controller.

    Each analysis exists in two forms: a [Result]-typed variant
    ({!dc_r}, {!transient_r}) returning [Ok result] or a structured
    [Error Diag.failure], and the historical raising form ({!dc},
    {!transient}) which is a thin wrapper that raises {!No_convergence}
    with the rendered diagnosis. *)

exception No_convergence of string

type integration = Backward_euler | Trapezoidal

type record = All | Nodes of Netlist.Transistor.node list

(** Typed analysis options.  Build with {!Opts.default} and the
    [with_*] combinators:
    {[
      Engine.Opts.(default |> with_fast `Reduce_bypass |> with_dt 2e-12)
    ]} *)
module Opts : sig
  type fast = [ `Off | `Reduce | `Reduce_bypass ]
  (** Fast transient path.  [`Off]: historical engine, bit-identical
      results.  [`Reduce]: series-RC chain reduction only (exact up to
      LU rounding).  [`Reduce_bypass]: reduction plus quiescent-device
      stamp bypass and LTE-controlled stepping — results within
      calibrated tolerance bands of [`Off]. *)

  type t = {
    integration : integration;  (** default [Backward_euler] *)
    dt : float option;
        (** nominal transient step; [None] derives it from [t_stop] and
            the fastest explicit RC time constant *)
    record : record;            (** default [All] *)
    uic : bool;                 (** skip the initial DC solve *)
    fast : fast;                (** default [`Off] *)
    policy : Recover.policy;  (** default {!Recover.default} *)
  }

  val default : t

  val with_integration : integration -> t -> t
  val with_dt : float -> t -> t
  val with_record : record -> t -> t
  val with_uic : bool -> t -> t
  val with_fast : fast -> t -> t
  val with_policy : Recover.policy -> t -> t

  val fast_of_string : string -> (fast, string) result
  (** Parse ["off"], ["reduce"] or ["reduce-bypass"]. *)

  val fast_to_string : fast -> string
  val pp_fast : Format.formatter -> fast -> unit
end

type t
(** A prepared simulation context (pattern, symbolic LU, stamp slots,
    reduced chains and their scratch state). *)

val prepare : ?opts:Opts.t -> Netlist.Transistor.t -> t
(** [prepare ?opts netlist] resolves the MNA structure once and fixes
    the options (default {!Opts.default}) of every analysis run on the
    result.  [fast] is structural — it decides the unknown numbering and
    sparsity pattern. *)

val system : t -> Mna.system
val opts : t -> Opts.t

val default_dt : t -> t_stop:float -> float
(** The step used when [Opts.dt] is [None]: [t_stop /. 2000.], refined
    downward to half the fastest explicit RC time constant of the deck
    (never below [t_stop /. 50000.]), so a slow analysis window cannot
    silently under-resolve a fast node. *)

val dc_r :
  ?time:float ->
  ?x0:float array ->
  ?telemetry:Diag.telemetry ->
  ?obs:Obs.t ->
  t ->
  (float array, Diag.failure) result
(** Operating point with the sources evaluated at [time] (default 0).
    [x0] seeds the Newton iteration (see {!initial_guess}) and also
    warm-starts every recovery strategy.  On failure of the direct
    solve the [policy] option's DC strategies (default: gmin ramp, then
    source stepping) are tried in order, each bounded by the policy
    budgets.  [telemetry] (optional,
    caller-owned) accumulates effort counters across calls.  [obs]
    (default [Obs.disabled]) records a ["spice.dc"] span carrying the
    analysis's Newton/factorization deltas as args, and flushes the
    telemetry deltas once per analysis into the registry
    ([spice.dc.analyses], [spice.newton_iterations], ... and the
    [spice.newton_per_analysis] histogram).

    Under a reducing fast mode the chain-interior voltages of the
    solution are recovered on success and readable with {!voltage}. *)

val dc : ?time:float -> ?x0:float array -> t -> float array
(** {!dc_r}, raising on failure.
    @raise No_convergence when every strategy fails. *)

val initial_guess :
  t -> (Netlist.Transistor.node * float) list -> float array
(** Build a DC seed vector from per-node voltage hints (e.g. the
    logic-simulator steady state). *)

val voltage : t -> float array -> Netlist.Transistor.node -> float
(** Read a node voltage: from the solution vector for retained
    unknowns, 0 for ground, and from the back-substituted chain state
    for nodes eliminated by a reducing fast mode. *)

type result

val transient_r :
  ?x0:float array ->
  ?telemetry:Diag.telemetry ->
  ?obs:Obs.t ->
  t ->
  t_stop:float ->
  (result, Diag.failure) Stdlib.result
(** Simulate from a [dc_r] initial condition at [t = 0] to [t_stop],
    under the options given to {!prepare}.

    The [dt] option defaults to {!default_dt}; [x0] seeds the DC solve.
    With the [uic] option the DC solve is skipped entirely and [x0] is
    taken as the initial state — the integrator settles any
    inconsistency within a few steps, which is how very large blocks
    whose cold DC diverges are simulated.  Under [`Off] and [`Reduce]
    every step is [dt] (the last one clipped to [t_stop]).  Under
    [`Reduce_bypass] the step is driven by a local-truncation-error
    controller in [dt/16, 64*dt], clamped so it never strides across a
    source-waveform breakpoint.  Only recorded nodes (the [record]
    option, default [All]) can be read back with {!waveform}.

    A rejected step walks the policy's transient strategies in order
    (default: step halving, Backward-Euler fallback, transient gmin
    ramping, DC re-seeding), each bounded, so every run terminates with
    either [Ok] — whose waveforms contain only finite samples — or a
    structured [Error].

    [obs] records a ["spice.transient"] span (the nested
    operating-point solve appears as a ["spice.dc"] child span, with
    counter flushing suppressed so solver effort is attributed exactly
    once, to the enclosing transient).
    @raise Invalid_argument on [t_stop <= 0], [dt <= 0] or
    [dt > t_stop]. *)

val transient : ?x0:float array -> t -> t_stop:float -> result
(** {!transient_r}, raising on failure.
    @raise No_convergence when a step fails even after every recovery
    strategy. *)

val waveform : result -> Netlist.Transistor.node -> Phys.Pwl.t
(** Samples of a recorded node, including back-substituted
    chain-interior nodes under a reducing fast mode.
    @raise Not_found for a node that was not recorded. *)

val waveform_named : result -> string -> Phys.Pwl.t
(** Look a node up by name first. *)

val final_solution : result -> float array
val steps_taken : result -> int
val newton_iterations : result -> int
(** Newton iterations spent by this run (performance accounting). *)

val telemetry : result -> Diag.telemetry
(** The telemetry record the run accumulated into (the caller-supplied
    one when given, otherwise a fresh per-run record). *)
