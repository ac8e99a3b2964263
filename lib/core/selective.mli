(** Selective-MTCMOS co-optimizer (ROADMAP open item 3).

    The paper sizes {e one} shared high-Vt sleep device under a delay
    budget.  Its industrial extension — Toshiba's "Area-Efficient
    Selective Multi-Threshold CMOS Design Methodology" — jointly decides
    (a) which gates run low-Vt vs high-Vt (the tech card's dual-Vt
    pair), (b) how the low-Vt gates cluster onto [k] sleep devices, and
    (c) how large each cluster's device is, minimizing standby leakage
    and/or sleep-device area subject to an STA slack constraint against
    a user delay budget.

    The optimizer mirrors the classic slack-driven dual-Vt cell-swapping
    loop: starting all-high-Vt, worst-slack-path cells are swapped to
    low-Vt until the budget is met (candidates scored in parallel, ties
    broken toward cells feeding more primary outputs — the
    fanout-endpoint cost ordering — then toward the lower gate id); a
    reclaim phase then tries both Vt directions per cell, widest
    pull-downs first — swapping a slack-rich low cell back to high-Vt,
    or a high cell down to low where its off-current costs more than
    the device growth it causes — keeping a toggle only when the budget
    still holds and the objective strictly improves; clusters (seeded
    from {!Hierarchy.by_level}, empty bands compacted away) are refined
    by moving gates between devices, which pays because gates behind
    different devices never co-load one rail (see {!Sta.gating}).
    Every evaluation is a gating-aware {!Sta.analyze}, cached under
    {!Cached.selective_key}.

    {b Determinism contract}: the loop is purely greedy with fixed
    candidate orders and exact float comparisons — the result is
    bit-identical across [jobs], cache on/off/warm, and repeated runs.
    [evaluations] counts logical arrival queries (including cache hits),
    so it is part of the contract too.

    {b Greedy bound}: on the differential suite's fixture classes
    (chains and fanout trees of at most 12 gates, at the optimizer's
    final clustering) the returned objective is within {b 2.0×} of the
    exhaustive optimum over all [2^G] Vt assignments sized by
    {!size_clusters}.  [test/test_selective.ml] enforces this bound. *)

type objective =
  | Leakage  (** standby leakage, A *)
  | Area     (** sleep-device silicon area, m^2 *)
  | Mixed
      (** [leakage /. leak_norm +. area /. area_norm] where the norms
          are the all-high-Vt leakage floor and the area of a sleep
          device as wide as the circuit's total pull-down W/L *)

val objective_of_string : string -> objective option
(** ["leakage" | "area" | "mixed"]. *)

val objective_name : objective -> string

type result = {
  vt_high : bool array;        (** per gate: high-Vt cell on real ground *)
  cluster_of_gate : int array; (** per gate: compacted cluster index *)
  sleep_wl : float array;
      (** per cluster: device W/L; [0.] when the cluster holds no
          low-Vt gate (no device is sized for zero gates) *)
  members : int array array;   (** per cluster: member gate ids, ascending *)
  base_delay : float;  (** all-low-Vt ideal-ground critical arrival, s *)
  budget : float;      (** absolute arrival budget, s *)
  arrival : float;     (** final gated critical arrival, s *)
  slack : float;       (** [budget -. arrival], >= 0 on success *)
  leakage : float;     (** standby leakage of the answer, A *)
  ungated_leakage : float;
      (** all-low-Vt no-gating baseline ([Leakage.off_current] of the
          total pull-down width) — the invariant [leakage <=
          ungated_leakage] always holds *)
  area : float;        (** total sleep-device area, m^2 *)
  objective : objective;
  objective_value : float;
  evaluations : int;   (** logical arrival queries issued *)
  flips_to_low : int;  (** phase-A high->low swaps *)
  reclaimed : int;     (** phase-B low->high swaps kept *)
  moves : int;         (** phase-C cluster moves kept *)
}

val gating :
  vt_high:bool array -> cluster_of_gate:int array -> sleep_wl:float array ->
  Sta.gating
(** Package an assignment for {!Sta.analyze} — what the test suite uses
    to re-verify the slack constraint independently. *)

val arrival :
  ?ctx:Eval.Ctx.t ->
  Netlist.Circuit.t ->
  vt_high:bool array ->
  cluster_of_gate:int array ->
  sleep_wl:float array ->
  float
(** Worst primary-output arrival of one gated configuration (cached
    under {!Cached.selective_key} when the context has a cache). *)

val standby_leakage :
  Netlist.Circuit.t ->
  vt_high:bool array ->
  cluster_of_gate:int array ->
  sleep_wl:float array ->
  float
(** Standby leakage of a configuration: per cluster, the gated
    series-stack current of its low-Vt pull-down width through its
    sleep device ({!Device.Leakage.standby_comparison}); plus the
    high-Vt off-current of every high-Vt cell (which sits on the real
    ground); low-Vt gates in a device-less cluster leak at the full
    ungated low-Vt rate. *)

val sleep_area : Netlist.Circuit.t -> sleep_wl:float array -> float
(** Total silicon area of the cluster devices,
    [sum (wl *. lmin^2)]. *)

val ungated_leakage : Netlist.Circuit.t -> float
(** All-low-Vt, no-gating standby leakage baseline. *)

val objective_value :
  Netlist.Circuit.t -> objective -> leakage:float -> area:float -> float

val size_clusters :
  ?ctx:Eval.Ctx.t ->
  ?wl_lo:float ->
  ?wl_hi:float ->
  Netlist.Circuit.t ->
  budget:float ->
  vt_high:bool array ->
  cluster_of_gate:int array ->
  n_clusters:int ->
  float array
(** Minimal per-cluster sleep sizes meeting the absolute arrival
    [budget] at a fixed Vt assignment and clustering: a uniform
    geometric bisection over the active clusters (those with low-Vt
    members) followed by two deterministic per-cluster shrink passes.
    Clusters without low-Vt members get [0.].  The differential oracle
    calls this on every enumerated assignment, so optimizer and oracle
    price configurations identically.
    @raise Not_found when even [wl_hi] (default 4096) misses the
    budget. *)

val optimize :
  ?ctx:Eval.Ctx.t ->
  ?objective:objective ->
  ?clusters:int ->
  ?max_passes:int ->
  Netlist.Circuit.t ->
  delay_budget:float ->
  result
(** Run the co-optimizer.  [delay_budget] is the allowed arrival
    increase as a fraction of the all-low-Vt ideal-ground baseline
    (0.1 = 10 %); [clusters] (default 4) seeds the {!Hierarchy.by_level}
    partition; [max_passes] (default 2) bounds the reclaim/move
    refinement rounds.  [ctx] supplies [jobs] (parallel candidate
    scoring), the evaluation cache and the observability handle
    (["selective.optimize"] span; [selective.evaluations] /
    [selective.flips] / [selective.reclaims] / [selective.moves]
    counters).
    @raise Invalid_argument on [delay_budget < 0], [clusters < 1],
    [max_passes < 0] or a gate-free circuit.
    @raise Not_found when the budget is infeasible even all-low-Vt at
    the maximum device size. *)

val bounce_peak :
  ?ctx:Eval.Ctx.t ->
  Netlist.Circuit.t ->
  result ->
  vectors:Sizing.vector_pair list ->
  float
(** Worst virtual-ground bounce of an {!optimize} answer over [vectors]
    ({!Breakpoint_sim}, one [Sleep_fet] per sized cluster, high-Vt cells
    on the real ground). *)

val pp_result : ?vx_peak:float -> Format.formatter -> result -> unit
(** Deterministic multi-line summary (the [mtsize select] output);
    [vx_peak], when given, is printed as the answer's bounce. *)
