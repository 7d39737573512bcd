(** Name kept for the benchmark driver (perfbench), which records the run
    cache directory in every repetition.  The on-disk run cache has been
    removed, so there is never a directory.  This module stays until the
    benchmark stops reading it. *)

val dir : unit -> string option
(** Always [None]. *)
