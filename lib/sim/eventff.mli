(** Name kept for the benchmark driver (perfbench), which records the
    event-engine fast-forward mode in every repetition.  The fast-forward
    has been removed: the event core always single-steps, so the mode is the
    constant [Off].  This module stays until the benchmark stops reading
    it. *)

type mode = Off

val current_mode : unit -> mode
(** Always [Off]. *)

val mode_to_string : mode -> string
(** ["off"]. *)
