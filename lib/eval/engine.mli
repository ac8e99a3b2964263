(** Which delay engine an evaluation runs on.

    [Sizing], [Search], the CLI and the bench harness all need it, so
    it lives here, below [lib/core]. *)

type t =
  | Breakpoint   (** fast switch-level breakpoint simulator *)
  | Spice_level  (** transistor-level reference (Spice bridge) *)

val to_string : t -> string
(** ["bp"] or ["spice"] — the spelling the CLI accepts. *)

val of_string : string -> (t, string) result
(** Accepts ["bp"], ["breakpoint"], ["spice"]; anything else is an
    [Error] naming the valid spellings. *)

val pp : Format.formatter -> t -> unit
