(** Automatic drive-strength repair.

    Weak drivers (gates whose load dwarfs their strength) are both a
    plain timing problem and a modelling hazard for the switch-level
    tool (slow edges violate the Vdd/2-switching assumption, §5.3).
    This pass upsizes exactly the flagged gates until the lint screen is
    clean — the minimal-intervention version of standard-cell gate
    sizing. *)

type report = {
  circuit : Netlist.Circuit.t;   (** the repaired circuit *)
  iterations : int;
  upsized : (Netlist.Circuit.gate_id * float) list;
      (** final strength of every gate that changed *)
}

val fix_weak_drivers :
  ?ratio:float ->
  ?max_iterations:int ->
  ?factor:float ->
  Netlist.Circuit.t ->
  report
(** Repeatedly multiply the strength of every [weak-driver]-flagged gate
    by [factor] (default 2) until none remain or [max_iterations]
    (default 8) passes elapse.  [ratio] is forwarded to
    [Lint.check ~weak_driver_ratio].  Upsizing a gate loads its {e own}
    drivers harder, which is why the loop iterates to a fixpoint. *)
