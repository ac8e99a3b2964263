(** Append-only checkpoint file for the batch runner.

    A header line binds the journal to a {!Spec.fingerprint}; each
    completed job appends one length-framed
    [<id> <payload-length> <manifest-fragment-json>] line, flushed
    before the call returns.  Resume replays fragments verbatim (no
    re-parse, no re-serialize), so a resumed manifest is byte-identical
    to an uninterrupted one.  A process killed mid-append leaves at
    most one damaged last record — a truncated length header, a
    truncated payload, or a missing terminating newline — and {!load}
    tolerates all three by dropping the torn tail; that job simply
    re-runs.  Truncating a valid journal at {e any} byte offset never
    makes {!load} raise.  An unframed [<id> <fragment-json>] line (the
    record format before the length header) counts as torn: resuming
    such a journal re-runs that job and every later one. *)

val magic : string

val start : path:string -> fingerprint:string -> unit
(** Create (or truncate) the journal with a fresh header. *)

val append : path:string -> id:string -> json:string -> unit
(** Record one completed job.  [json] must be single-line.
    @raise Invalid_argument if it is not. *)

val load :
  path:string -> fingerprint:string -> ((string * string) list, string) result
(** Completed [(id, fragment)] entries in append order.  Errors when
    the file is not a journal or was written for a different job file
    (fingerprint mismatch).  Trailing damage from a mid-write kill —
    torn length header, short payload, unterminated line — is silently
    dropped, and nothing after the first damaged record is trusted.
    Never raises on truncated input. *)
