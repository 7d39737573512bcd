(** Timing replay: schedule the recorded DMA streams of all concurrent
    functional-unit instances through the shared interconnect.

    Models exactly the contention the paper's prototype exhibits: one grant
    per cycle on the AXI fabric, posted writes, pipelined streaming reads up
    to the FU's outstanding limit, and dependent (pointer-chasing) reads that
    stall their instance for the full round trip — including the guard's
    checking latency, which is otherwise hidden under pipelining. *)

type result = {
  makespan : int;
      (** cycles from start until the last instance's last transaction
          completes *)
  per_instance : (int * int) list;
      (** (instance id, completion cycle) *)
  bus_beats : int;  (** total data beats moved *)
  bus_errors : int;
      (** injected error responses observed (each re-issues the transaction) *)
  failed : int list;
      (** instances that exhausted the per-event error-retry budget; their
          remaining events were abandoned *)
}

type stream = {
  instance : int;
  trace : Trace.t;
  max_outstanding : int;
      (** this FU's streaming-read depth — mixed systems combine
          accelerators with different interface quality *)
}

val run : ?error_retry_limit:int -> Bus.Fabric.t -> start:int -> stream list -> result
(** Replay every stream beginning at cycle [start].  Instances arbitrate in
    earliest-ready order (FIFO): each grant goes to the instance whose next
    transaction can issue at the earliest cycle, and equal candidate cycles
    go to the stream listed first.  The instances sit in a binary heap on
    that key, so picking a grant costs O(log N) for N streams and allocates
    nothing beyond the fabric's grant record.  An empty trace completes at
    [start].

    An errored grant (injected bus fault) is re-issued after a fixed
    turnaround; after [error_retry_limit] (default 4) consecutive errors on
    the same event the instance is marked failed and abandons its remaining
    events.  Without fault injection no grant errors and behaviour is
    identical to the error-free scheduler. *)

val run_event :
  ?error_retry_limit:int ->
  sched:Ccsim.Sched.t ->
  ic:Bus.Topology.t ->
  start:int ->
  stream list ->
  result
(** Replay every stream through the event-driven core: one {!Flow} process
    per instance feeds its recorded trace to the interconnect topology, and
    the scheduler is drained before the result is assembled ([sched] and
    [ic] must be fresh and private to this call).  Per-event semantics are
    identical to {!run}; what changes is the arbitration policy — grants
    rotate round-robin among contending sources instead of following the
    global earliest-ready order — and therefore the interleaving of fault
    draws under injection.  Recorded events carry no addresses, so on a
    crossbar every stream issues to its home bank
    ({!Bus.Topology.home_target}).  [bus_beats] is read from the topology. *)
