(** The outstanding-read window of one accelerator instance: the completion
    cycles of its in-flight streaming reads, oldest first, bounded by the
    synthesized interface's [max_outstanding].

    A fixed ring of ints: pushing and popping allocate nothing.  {!Replay}
    and {!Flow} share it, so both engines bound the window the same way. *)

type t

val create : max_outstanding:int -> t
(** An empty window holding up to [max 1 max_outstanding] reads. *)

val is_full : t -> bool
(** A streaming read issued now must first wait for {!oldest}. *)

val oldest : t -> int
(** Completion cycle of the oldest in-flight read.  The window must not be
    empty. *)

val pop : t -> int
(** Remove and return {!oldest}. *)

val push : t -> int -> unit
(** Record a newly granted read's completion cycle.  Raises
    [Invalid_argument] when the window is full. *)
