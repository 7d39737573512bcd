(** Deterministic open-loop workload generation for the service mode.

    A workload is a fully materialized, time-sorted event schedule — tenant
    arrivals, tenant departures, and requests — drawn from one seeded
    {!Ccsim.Rng}.  Open-loop means request arrival times are independent of
    service completions: a slow system falls behind and queues, it does not
    slow the offered load, which is what makes tail latency a meaningful
    measurement.  The same [params] always generate byte-identical schedules
    ([generate] touches no other source of randomness), so every serve run is
    replayable from its seed alone. *)

type params = {
  tenants : int;      (** number of tenant compartments (>= 1) *)
  requests : int;     (** total requests offered over the horizon (>= 0) *)
  seed : int;         (** RNG seed; the sole source of randomness *)
  mean_gap : int;
      (** mean request inter-arrival gap in cycles; gaps are uniform in
          [[1, 2*mean_gap - 1]].  Must be >= 1 (the service loop computes a
          utilization-derived default before generating). *)
  ramp : int;
      (** tenant arrival times are uniform in [[0, ramp]]; 0 = all tenants
          present from cycle 0 *)
  churn_pct : int;
      (** percentage of tenants (0-100) that depart before the horizon,
          tearing their compartment down mid-run *)
  mix : (string * int) list;
      (** weighted kernel mix: (benchmark name, positive weight) *)
  scales : (int * int) list;
      (** weighted request sizes: (scale factor, positive weight); a request
          of scale [s] costs [s] times the profiled kernel service time *)
}

type ev =
  | Tenant_arrive of int
  | Tenant_depart of int
  | Request of { rq : int; tenant : int; bench : string; scale : int }

type timed = { at : int; ev : ev }

val default_mix : (string * int) list
(** [aes 3, kmp 2, sort_merge 2, spmv_crs 1] — small kernels so profiling
    stays cheap at any request count. *)

val default_scales : (int * int) list
(** [1 x4, 2 x2, 4 x1]. *)

val ev_rank : ev -> int
(** Same-cycle ordering: arrivals (0) before requests (1) before
    departures (2), so a tenant arriving, requesting and departing on one
    cycle behaves sensibly. *)

val check : params -> (unit, string) result
(** [Error] naming the first out-of-range field: non-positive [tenants],
    negative [requests], [mean_gap < 1], [churn_pct] outside [0,100], or an
    empty / non-positively-weighted [mix] or [scales]. *)

val generate : params -> timed list
(** The full schedule sorted by [(at, ev_rank)], draw order breaking ties.
    A request may target a tenant that has not yet arrived or has already
    departed — admission rejects it ([Gone]), modelling traffic for an
    unknown tenant.  @raise Invalid_argument when {!check} fails. *)
