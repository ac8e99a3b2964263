(** Explicit, configurable recovery-policy ladder for {!Engine}.

    A policy names which strategies an analysis may try when a solve
    fails, in order, and bounds each with retry/iteration budgets so no
    input can loop forever.  DC analyses use [dc_strategies]
    ({!Gmin_ramp}, {!Source_step}); transients use
    [transient_strategies] ({!Shrink_step}, {!Stiff_integration},
    {!Gmin_ramp}, {!Warm_start_dc}).  Strategies that do not apply to an
    analysis kind are skipped. *)

type strategy =
  | Shrink_step        (** halve dt, up to [max_step_halvings] times *)
  | Stiff_integration  (** retry a rejected step with Backward-Euler *)
  | Gmin_ramp          (** ramp gmin down from a large value, warm-starting *)
  | Source_step        (** ramp every source from zero (DC only) *)
  | Warm_start_dc      (** re-seed a stuck step from a fresh DC solution *)

val strategy_name : strategy -> string

type policy = {
  dc_strategies : strategy list;
  transient_strategies : strategy list;
  direct_max_iter : int;      (** budget for the first, unassisted solve *)
  ladder_max_iter : int;      (** budget per assisted solve *)
  gmin_start : float;         (** DC gmin-ladder entry conductance; the
                                  ladder walks down a decade per rung to
                                  the engine's floor of 1e-12 *)
  transient_gmin_start : float; (** gmin-ladder entry for a stuck step *)
  source_steps : int;         (** source-stepping ramp resolution *)
  max_step_halvings : int;    (** transient step-halving depth *)
}

val default : policy

val strict : policy
(** No recovery at all: the first failed solve is the analysis failure.
    Useful for pinning down which strategy a deck needs. *)

val with_newton_budget : int -> policy -> policy
(** Cap both the direct and the assisted Newton budgets at [n] — the
    production knob for bounding solver effort per analysis.  The
    direct budget bounds the DC operating-point solve and the assisted
    one every recovery-ladder solve; a transient step's nominal and
    step-halving solves keep the engine's fixed 40-iteration budget.
    @raise Invalid_argument when [n <= 0]. *)

val pp_policy : Format.formatter -> policy -> unit
