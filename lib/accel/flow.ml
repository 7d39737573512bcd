type t = {
  sched : Ccsim.Sched.t;
  ic : Bus.Topology.t;
  src : int;
  home : int;  (* default target for events with no recorded address *)
  error_retry_limit : int;
  window : Window.t;  (* completion times of in-flight streaming reads *)
  mutable ready : int;
  mutable finish : int;
  mutable errors : int;
  mutable event_retries : int;  (* consecutive error responses on the current event *)
}

exception Failed

let error_turnaround = 8
(* cycles between observing an error response and re-issuing the transaction *)

let create ?(error_retry_limit = 4) ~sched ~ic ~src ~start ~max_outstanding () =
  {
    sched; ic; src;
    home = Bus.Topology.home_target ic ~src;
    error_retry_limit;
    window = Window.create ~max_outstanding;
    ready = start;
    finish = start;
    errors = 0;
    event_retries = 0;
  }

(* One effect suspension per event, retries included: the fiber parks once,
   the grant callback does the absorption bookkeeping (and any synchronous
   error re-request) itself, and the fiber is woken directly at the cycle
   the instance may proceed.  The event sequence is identical to the old
   two-suspension shape (request submitted at the same program point, the
   wake scheduled from inside [on_grant] with the same cycle/rank/seq) — it
   just skips one continuation capture per transaction, which the contended
   interconnect sweeps feel.  The wake is always strictly in the future:
   [ready] is at least [granted_at + 1]. *)
let issue ?target t (ev : Trace.event) =
  let target = match target with Some tg -> tg | None -> t.home in
  let is_read = ev.Trace.kind = Guard.Iface.Read in
  let streaming = is_read && not ev.Trace.dependent in
  let failed = ref false in
  Ccsim.Sched.suspend t.sched (fun resume ->
      let rec attempt () =
        let cand = t.ready + ev.Trace.gap in
        (* A streaming read with a full outstanding window must wait for the
           oldest in-flight read to return. *)
        let cand =
          if streaming && Window.is_full t.window then max cand (Window.pop t.window)
          else cand
        in
        Bus.Topology.request t.ic ~src:t.src ~target ~at:cand
          ~beats:ev.Trace.beats ~is_read ~extra_latency:ev.Trace.latency
          ~on_grant:(fun grant ->
            if grant.Bus.Fabric.errored then begin
              t.errors <- t.errors + 1;
              t.finish <- max t.finish grant.Bus.Fabric.completed;
              if t.event_retries >= t.error_retry_limit then begin
                (* Wake the fiber now so [Failed] raises at the same point
                   (and through the same handler chain) it always did. *)
                failed := true;
                resume ()
              end
              else begin
                t.event_retries <- t.event_retries + 1;
                t.ready <- grant.Bus.Fabric.completed + error_turnaround;
                attempt ()
              end
            end
            else begin
              t.event_retries <- 0;
              (match (ev.Trace.kind, ev.Trace.dependent) with
              | Guard.Iface.Write, _ ->
                  (* Posted write: the instance moves on after the address
                     phase. *)
                  t.ready <- grant.Bus.Fabric.granted_at + 1;
                  t.finish <- max t.finish grant.Bus.Fabric.data_done
              | Guard.Iface.Read, true ->
                  t.ready <- grant.Bus.Fabric.completed;
                  t.finish <- max t.finish grant.Bus.Fabric.completed
              | Guard.Iface.Read, false ->
                  Window.push t.window grant.Bus.Fabric.completed;
                  t.ready <- grant.Bus.Fabric.granted_at + 1;
                  t.finish <- max t.finish grant.Bus.Fabric.completed);
              Ccsim.Sched.at t.sched ~cycle:t.ready resume
            end)
      in
      attempt ());
  if !failed then raise Failed

let ready t = t.ready
let finish t = t.finish
let errors t = t.errors
