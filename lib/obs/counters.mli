(** Process-global fast-path visibility counters.

    The script and proof-driven fast paths and the arbiter's coalesced
    re-arms are, by construction, invisible in every simulated number; these
    counters are the only place the skips show up (read by the test suite
    and the perfbench driver).  Pure telemetry — nothing in the simulator
    reads them back, so bumping them can never perturb a result.  Safe to
    bump from pool worker domains. *)

type t

val accesses_fast_pathed : t
(** Adjudications skipped because the task was statically proven in bounds
    and the guard declared a pure constant-latency check path. *)

val traces_memoized : t
(** Kernel interpretations avoided by replaying a recorded access script. *)

val runs_memoized : t
(** Whole system runs served from the cross-sweep result cache. *)

val periods_leaped : t
(** Always 0.  It counted the periods the removed event fast-forward leaped;
    it stays declared, and is never bumped, until the benchmark driver
    (perfbench) stops reading it. *)

val events_coalesced : t
(** Arbitration events never enqueued because a live event at or before the
    same cycle makes them provable no-ops (see {!Bus.Arbiter}). *)

val replay_grants : t
(** Bus grants issued by the trace replay ([Accel.Replay.run]), errored
    retries included.  Added once per replay call, not per grant. *)

val name : t -> string
val get : t -> int
val add : t -> int -> unit
val incr : t -> unit

val reset : unit -> unit
(** Zero every counter (start of a bench section or test case). *)

val snapshot : unit -> (string * int) list
(** All counters as [(name, value)] pairs, in declaration order. *)
