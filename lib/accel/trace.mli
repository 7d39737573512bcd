(** DMA transaction traces.

    The accelerator model executes a task in two phases: {!Engine} interprets
    the kernel, performing functional memory effects and protection checks as
    they occur and recording the stream of bus transactions; {!Replay} then
    schedules the recorded streams of all concurrent instances through the
    shared interconnect to obtain cycle timing.  This split is sound because
    accelerator tasks are independent (threat-model assumption 2: no shared
    mutable state between tasks' functional semantics). *)

type event = {
  gap : int;
      (** datapath compute cycles between this transaction becoming ready and
          the instance's previous activity *)
  kind : Guard.Iface.kind;
  beats : int;       (** data beats on the bus *)
  dependent : bool;  (** pointer-chasing read: blocks the instance *)
  latency : int;     (** checking latency imposed by the guard on this path *)
}

type t

val create : unit -> t
val add : t -> event -> unit

val add_access :
  t ->
  bus:Bus.Params.t ->
  max_burst:int ->
  gap:int ->
  kind:Guard.Iface.kind ->
  addr:int ->
  size:int ->
  dependent:bool ->
  latency:int ->
  unit
(** Append one element access, merging it into the previous event when it
    continues a contiguous same-kind streaming burst with no compute gap and
    the burst-length limit allows (AXI burst formation). *)

val length : t -> int

val get : t -> int -> event
(** [get t i] is the [i]th recorded event, without copying the trace.
    Raises [Invalid_argument] outside [\[0, length t)]. *)

val iter : (event -> unit) -> t -> unit
(** In recording order, without copying.  The replay hot path uses
    {!get}/{!iter}; {!events} stays for callers that want a stable
    snapshot. *)

val events : t -> event array
(** A fresh snapshot of the recorded events (unaffected by later
    {!add}/{!add_access}).  Allocates a copy on every call — prefer
    {!get}/{!iter}/{!length} on hot paths. *)

val total_beats : t -> int
