type t = {
  p : Params.t;
  obs : Obs.Trace.t;
  faults : Fault.Injector.t;
  mutable free_at : int;
  mutable beats : int;
}

type grant = {
  granted_at : int;
  data_done : int;
  completed : int;
  errored : bool;
}

let create ?(obs = Obs.Trace.null) ?(faults = Fault.Injector.none) p =
  { p; obs; faults; free_at = 0; beats = 0 }

let params t = t.p

let request ?(src = -1) t ~at ~beats ~is_read ~extra_latency =
  assert (beats > 0 && at >= 0);
  let granted_at = max at t.free_at in
  let data_done = granted_at + t.p.Params.addr_phase + beats in
  t.free_at <- data_done;
  t.beats <- t.beats + beats;
  let mem_latency = if is_read then t.p.Params.read_latency else t.p.Params.write_latency in
  (* Injected faults: a stall delays the response by extra cycles; an error
     response completes on time but carries no valid data, so the requester
     must re-issue. *)
  let stall = Fault.Injector.bus_stall t.faults in
  let errored = Fault.Injector.bus_error t.faults in
  let completed = data_done + mem_latency + extra_latency + stall in
  if Obs.Trace.enabled t.obs then begin
    Obs.Trace.emit_at t.obs ~cycle:granted_at
      (Obs.Event.Bus_grant
         { source = src; beats; read = is_read; at; granted_at; data_done; completed });
    Obs.Trace.emit_at t.obs ~cycle:data_done (Obs.Event.Bus_beat { source = src; beats })
  end;
  { granted_at; data_done; completed; errored }

let total_beats t = t.beats

let reset t =
  t.free_at <- 0;
  t.beats <- 0
