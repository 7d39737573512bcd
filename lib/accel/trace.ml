type event = {
  gap : int;
  kind : Guard.Iface.kind;
  beats : int;
  dependent : bool;
  latency : int;
}

type t = {
  mutable events : event array;
  mutable len : int;
  (* State of the burst being formed, for contiguity detection. *)
  mutable last_end : int;   (* one past the last byte of the previous access *)
  mutable last_bytes : int; (* bytes accumulated in the last event *)
}

let create () =
  { events = Array.make 64 { gap = 0; kind = Guard.Iface.Read; beats = 0;
                             dependent = false; latency = 0 };
    len = 0; last_end = -1; last_bytes = 0 }

let grow t =
  if t.len = Array.length t.events then begin
    let bigger = Array.make (2 * t.len) t.events.(0) in
    Array.blit t.events 0 bigger 0 t.len;
    t.events <- bigger
  end

let add t e =
  grow t;
  t.events.(t.len) <- e;
  t.len <- t.len + 1;
  t.last_end <- -1;
  t.last_bytes <- 0

let add_access t ~bus ~max_burst ~gap ~kind ~addr ~size ~dependent ~latency =
  let mergeable =
    t.len > 0 && gap = 0 && (not dependent) && addr = t.last_end && t.last_end >= 0
    &&
    let prev = t.events.(t.len - 1) in
    prev.kind = kind && (not prev.dependent)
    && Bus.Params.beats_for bus (t.last_bytes + size) <= max_burst
  in
  if mergeable then begin
    let prev = t.events.(t.len - 1) in
    t.last_bytes <- t.last_bytes + size;
    t.events.(t.len - 1) <- { prev with beats = Bus.Params.beats_for bus t.last_bytes };
    t.last_end <- addr + size
  end
  else begin
    grow t;
    t.events.(t.len) <-
      { gap; kind; beats = Bus.Params.beats_for bus size; dependent; latency };
    t.len <- t.len + 1;
    t.last_end <- addr + size;
    t.last_bytes <- size
  end

let length t = t.len

let get t idx =
  if idx < 0 || idx >= t.len then invalid_arg "Accel.Trace.get";
  t.events.(idx)

let iter f t =
  for idx = 0 to t.len - 1 do
    f t.events.(idx)
  done

let events t = Array.sub t.events 0 t.len

let total_beats t =
  let total = ref 0 in
  for idx = 0 to t.len - 1 do
    total := !total + t.events.(idx).beats
  done;
  !total
