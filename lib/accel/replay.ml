type result = {
  makespan : int;
  per_instance : (int * int) list;
  bus_beats : int;
  bus_errors : int;
  failed : int list;
}

type stream = { instance : int; trace : Trace.t; max_outstanding : int }

type instance_state = {
  id : int;
  src : int option;  (* [Some id], built once: passing [~src] would box it per grant *)
  trace : Trace.t;  (* read through Trace.get/length: no per-instance copy *)
  n : int;
  mutable next : int;
  mutable ready : int;
  window : Window.t;  (* completion times of in-flight streaming reads *)
  mutable finish : int;
  mutable event_retries : int;  (* consecutive error responses on the current event *)
  mutable failed : bool;
}

let streaming (ev : Trace.event) =
  ev.Trace.kind = Guard.Iface.Read && not ev.Trace.dependent

let candidate_time st =
  let ev = Trace.get st.trace st.next in
  let cand = st.ready + ev.Trace.gap in
  (* A streaming read with a full outstanding window must wait for the
     oldest in-flight read to return. *)
  if streaming ev && Window.is_full st.window then max cand (Window.oldest st.window)
  else cand

(* The instances with events left form a binary min-heap of state indices
   keyed on (candidate cycle, index): the earliest-ready instance, and on a
   tie the first-listed one.  An instance's candidate depends only on its
   own state, so a grant changes only the root's key.  [keys] is annotated
   so that the comparisons compile to integer compares: left polymorphic,
   each one would call the runtime's generic compare. *)
let before (keys : int array) i j =
  keys.(i) < keys.(j) || (keys.(i) = keys.(j) && i < j)

let sift_down keys heap ~size pos =
  let i = heap.(pos) in
  let pos = ref pos and settled = ref false in
  while not !settled do
    let l = (2 * !pos) + 1 in
    let c =
      if l + 1 < size && before keys heap.(l + 1) heap.(l) then l + 1 else l
    in
    if c < size && before keys heap.(c) i then begin
      heap.(!pos) <- heap.(c);
      pos := c
    end
    else settled := true
  done;
  heap.(!pos) <- i

let run ?(error_retry_limit = 4) fabric ~start streams =
  let states =
    Array.of_list
      (List.map
         (fun s ->
           { id = s.instance; src = Some s.instance; trace = s.trace;
             n = Trace.length s.trace; next = 0; ready = start;
             window = Window.create ~max_outstanding:s.max_outstanding;
             finish = start; event_retries = 0; failed = false })
         streams)
  in
  let keys = Array.map (fun st -> if st.n > 0 then candidate_time st else 0) states in
  let heap = Array.make (Array.length states) 0 in
  let size = ref 0 in
  Array.iteri
    (fun i st ->
      if st.n > 0 then begin
        heap.(!size) <- i;
        incr size
      end)
    states;
  for pos = (!size / 2) - 1 downto 0 do
    sift_down keys heap ~size:!size pos
  done;
  let errors = ref 0 and grants = ref 0 in
  while !size > 0 do
    let i = heap.(0) in
    let st = states.(i) in
    let ev = Trace.get st.trace st.next in
    if streaming ev && Window.is_full st.window then ignore (Window.pop st.window);
    let grant =
      Bus.Fabric.request ?src:st.src fabric ~at:keys.(i) ~beats:ev.Trace.beats
        ~is_read:(ev.Trace.kind = Guard.Iface.Read) ~extra_latency:ev.Trace.latency
    in
    incr grants;
    if grant.Bus.Fabric.errored then begin
      incr errors;
      st.finish <- max st.finish grant.Bus.Fabric.completed;
      if st.event_retries >= error_retry_limit then begin
        (* Retry budget exhausted: this instance's run is lost; the
           driver decides what to do with the task. *)
        st.failed <- true;
        st.next <- st.n
      end
      else begin
        st.event_retries <- st.event_retries + 1;
        st.ready <- grant.Bus.Fabric.completed + Flow.error_turnaround
      end
    end
    else begin
      st.event_retries <- 0;
      st.next <- st.next + 1;
      match (ev.Trace.kind, ev.Trace.dependent) with
      | Guard.Iface.Write, _ ->
          (* Posted write: the instance moves on after the address phase. *)
          st.ready <- grant.Bus.Fabric.granted_at + 1;
          st.finish <- max st.finish grant.Bus.Fabric.data_done
      | Guard.Iface.Read, true ->
          st.ready <- grant.Bus.Fabric.completed;
          st.finish <- max st.finish grant.Bus.Fabric.completed
      | Guard.Iface.Read, false ->
          Window.push st.window grant.Bus.Fabric.completed;
          st.ready <- grant.Bus.Fabric.granted_at + 1;
          st.finish <- max st.finish grant.Bus.Fabric.completed
    end;
    if st.next >= st.n then begin
      (* Finished or failed: drop it from the heap. *)
      decr size;
      heap.(0) <- heap.(!size)
    end
    else keys.(i) <- candidate_time st;
    if !size > 0 then sift_down keys heap ~size:!size 0
  done;
  Obs.Counters.add Obs.Counters.replay_grants !grants;
  {
    makespan = Array.fold_left (fun acc st -> max acc st.finish) start states;
    per_instance = Array.to_list (Array.map (fun st -> (st.id, st.finish)) states);
    bus_beats = Bus.Fabric.total_beats fabric;
    bus_errors = !errors;
    failed =
      List.filter_map
        (fun st -> if st.failed then Some st.id else None)
        (Array.to_list states);
  }

let run_event ?error_retry_limit ~sched ~ic ~start streams =
  let flows =
    List.map
      (fun s ->
        let flow =
          Flow.create ?error_retry_limit ~sched ~ic ~src:s.instance ~start
            ~max_outstanding:s.max_outstanding ()
        in
        let failed = ref false in
        Ccsim.Sched.spawn sched ~at:start (fun () ->
            try Trace.iter (Flow.issue flow) s.trace
            with Flow.Failed -> failed := true);
        (s.instance, flow, failed))
      streams
  in
  Ccsim.Sched.run sched;
  let makespan =
    List.fold_left (fun acc (_, flow, _) -> max acc (Flow.finish flow)) start flows
  in
  {
    makespan;
    per_instance = List.map (fun (id, flow, _) -> (id, Flow.finish flow)) flows;
    bus_beats = Bus.Topology.total_beats ic;
    bus_errors =
      List.fold_left (fun acc (_, flow, _) -> acc + Flow.errors flow) 0 flows;
    failed =
      List.filter_map
        (fun (id, _, failed) -> if !failed then Some id else None)
        flows;
  }
