(** The shared-bus arbiter.

    Models the paper's AXI interconnect as a single shared resource: at most
    one transaction owns the data bus at a time and each beat takes one cycle.
    Requests are served in arrival order (FIFO arbitration), which is how the
    round-robin AXI crossbar behaves under sustained contention. *)

type t

type grant = {
  granted_at : int;   (** cycle the address phase won arbitration *)
  data_done : int;    (** cycle the last beat left the bus (address phase
                          included) *)
  completed : int;    (** cycle the requester observes completion
                          (incl. memory latency for reads and any injected
                          stall) *)
  errored : bool;     (** the response was an injected bus error: it arrives
                          at [completed] but carries no valid data, so the
                          requester must re-issue *)
}

val create : ?obs:Obs.Trace.t -> ?faults:Fault.Injector.t -> Params.t -> t
(** [obs] (default {!Obs.Trace.null}) receives a [Bus_grant] event per
    transaction, stamped at its arbitration cycle, and a [Bus_beat] event at
    its last data beat.  Tracing never alters grant timing.  [faults]
    (default {!Fault.Injector.none}) may stall or error individual
    transactions; with the inert injector every grant has [errored = false]
    and zero stall, bit-identical to a fabric without fault plumbing. *)

val params : t -> Params.t

val request :
  ?src:int -> t -> at:int -> beats:int -> is_read:bool -> extra_latency:int -> grant
(** [request t ~at ~beats ~is_read ~extra_latency] submits a transaction that
    becomes ready at cycle [at].  [extra_latency] is added by interposed
    hardware on the path (the CapChecker's pipeline stages).  Writes are
    posted: their [completed] is the write-latency point but requesters
    normally continue at [granted_at].  [src] (default -1) attributes the
    transaction to an interconnect source id for the event trace only. *)

val total_beats : t -> int
(** Beats transferred so far (bandwidth accounting for the power model). *)

val reset : t -> unit
