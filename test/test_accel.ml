(* The accelerator model: AXI burst formation in traces, the execution
   engine's functional + checking behaviour, and the contention replay. *)

open Kernel.Ir

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let bus = Bus.Params.default
let ap = bus.Bus.Params.addr_phase

(* ---------------- trace / burst formation ---------------- *)

let add t ?(gap = 0) ?(kind = Guard.Iface.Read) ?(dependent = false) ~addr ~size () =
  Accel.Trace.add_access t ~bus ~max_burst:bus.Bus.Params.max_burst ~gap ~kind ~addr
    ~size ~dependent ~latency:0

let test_burst_merge_contiguous () =
  let t = Accel.Trace.create () in
  for j = 0 to 15 do
    add t ~addr:(j * 8) ~size:8 ()
  done;
  checki "one 16-beat burst" 1 (Accel.Trace.length t);
  checki "beats" 16 (Accel.Trace.total_beats t)

let test_burst_respects_max () =
  let t = Accel.Trace.create () in
  for j = 0 to 31 do
    add t ~addr:(j * 8) ~size:8 ()
  done;
  checki "split at max_burst" 2 (Accel.Trace.length t)

let test_burst_small_elements_share_beats () =
  let t = Accel.Trace.create () in
  for j = 0 to 15 do
    add t ~addr:(j * 4) ~size:4 ()
  done;
  (* 64 bytes on an 8-byte bus = 8 beats. *)
  checki "one burst" 1 (Accel.Trace.length t);
  checki "beats from bytes" 8 (Accel.Trace.total_beats t)

let test_no_merge_on_gap () =
  let t = Accel.Trace.create () in
  add t ~addr:0 ~size:8 ();
  add t ~gap:3 ~addr:8 ~size:8 ();
  checki "gap breaks burst" 2 (Accel.Trace.length t)

let test_no_merge_on_kind_change () =
  let t = Accel.Trace.create () in
  add t ~addr:0 ~size:8 ();
  add t ~kind:Guard.Iface.Write ~addr:8 ~size:8 ();
  checki "kind breaks burst" 2 (Accel.Trace.length t)

let test_no_merge_noncontiguous () =
  let t = Accel.Trace.create () in
  add t ~addr:0 ~size:8 ();
  add t ~addr:64 ~size:8 ();
  checki "stride breaks burst" 2 (Accel.Trace.length t)

let test_no_merge_dependent () =
  let t = Accel.Trace.create () in
  add t ~addr:0 ~size:8 ();
  add t ~dependent:true ~addr:8 ~size:8 ();
  checki "dependent load stands alone" 2 (Accel.Trace.length t)

(* ---------------- engine ---------------- *)

let make_env () =
  let mem = Tagmem.Mem.create ~size:(1 lsl 20) in
  let heap = Tagmem.Alloc.create ~base:4096 ~size:((1 lsl 20) - 4096) in
  (mem, heap)

let layout_for heap (kernel : Kernel.Ir.t) =
  Memops.Layout.make
    (List.map
       (fun (decl : buf_decl) ->
         let bytes = buf_decl_bytes decl in
         let align, padded = Cheri.Bounds_enc.malloc_shape ~length:bytes in
         { Memops.Layout.decl; base = Tagmem.Alloc.malloc heap ~align padded })
       kernel.bufs)

let run_engine ?(guard = Guard.Iface.pass_through)
    ?(addressing = Accel.Engine.Plain) ?(naive = false) mem kernel layout =
  Accel.Engine.run ~mem ~guard ~bus ~directives:Hls.Directives.default ~addressing
    ~naive_tag_writes:naive
    {
      Accel.Engine.instance = 0;
      kernel;
      layout;
      params = [];
      obj_ids = List.mapi (fun obj (d : buf_decl) -> (d.buf_name, obj)) kernel.bufs;
    }

let scale_kernel =
  {
    name = "scale";
    bufs = [ buf ~writable:false "src" I64 32; buf "dst" I64 32 ];
    scratch = [];
    body =
      [ for_ "j" (i 0) (i 32) [ store "dst" (v "j") (ld "src" (v "j") *: i 2) ] ];
  }

let test_engine_functional () =
  let mem, heap = make_env () in
  let layout = layout_for heap scale_kernel in
  let src = Memops.Layout.find layout "src" in
  Memops.Layout.init_buffer mem src (fun idx -> Kernel.Value.VI idx);
  let o = run_engine mem scale_kernel layout in
  checkb "completed" true (o.Accel.Engine.denied = None);
  checki "reads" 32 o.Accel.Engine.reads;
  checki "writes" 32 o.Accel.Engine.writes;
  let dst = Memops.Layout.find layout "dst" in
  checki "value scaled" 22
    (Kernel.Value.as_int
       (Memops.Layout.read_elem mem I64 ~addr:(Memops.Layout.elem_addr dst 11)))

let test_engine_checks_counted () =
  let mem, heap = make_env () in
  let layout = layout_for heap scale_kernel in
  let o = run_engine mem scale_kernel layout in
  checki "one check per access" 64 o.Accel.Engine.checks

let test_engine_denial_aborts () =
  let oob =
    {
      name = "oob";
      bufs = [ buf "a" I64 8 ];
      scratch = [];
      body =
        [
          store "a" (i 0) (i 1);
          store "a" (i 5000) (i 2);  (* way past the buffer *)
          store "a" (i 1) (i 3);     (* never reached *)
        ];
    }
  in
  let mem, heap = make_env () in
  let layout = layout_for heap oob in
  let checker = Capchecker.Checker.create Capchecker.Checker.Fine in
  let binding = Memops.Layout.find layout "a" in
  let cap =
    match Cheri.Cap.set_bounds Cheri.Cap.root ~base:binding.Memops.Layout.base ~length:64 with
    | Ok c -> c
    | Error _ -> assert false
  in
  (match Capchecker.Checker.install checker ~task:0 ~obj:0 cap with
  | Capchecker.Table.Installed _ -> ()
  | Capchecker.Table.Table_full | Capchecker.Table.Rejected_untagged -> assert false);
  let o =
    run_engine
      ~guard:(Capchecker.Checker.as_guard checker)
      ~addressing:Accel.Engine.Fine_ports mem oob layout
  in
  checkb "denied" true (o.Accel.Engine.denied <> None);
  checki "first store landed" 1
    (Kernel.Value.as_int
       (Memops.Layout.read_elem mem I64 ~addr:binding.Memops.Layout.base));
  checki "third store never issued" 0
    (Kernel.Value.as_int
       (Memops.Layout.read_elem mem I64
          ~addr:(Memops.Layout.elem_addr binding 1)));
  checkb "exception flag up" true (Capchecker.Checker.exception_flag checker)

let test_engine_bus_error_out_of_dram () =
  let wild =
    { name = "wild"; bufs = [ buf "a" I64 8 ]; scratch = [];
      body = [ store "a" (i 0) (ld "a" (i 100_000_000)) ] }
  in
  let mem, heap = make_env () in
  let layout = layout_for heap wild in
  let o = run_engine mem wild layout in
  (match o.Accel.Engine.denied with
  | Some d -> Alcotest.(check string) "bus error" "bus" d.Guard.Iface.code
  | None -> Alcotest.fail "escaped physical memory")

let test_engine_tag_discipline () =
  (* Guarded (and even unguarded but non-naive) DMA writes clear tags;
     the naive path preserves them. *)
  let k =
    { name = "w"; bufs = [ buf "a" I64 8 ]; scratch = [];
      body = [ store "a" (i 0) (i 42); store "a" (i 1) (i 43) ] }
  in
  let run ~naive =
    let mem, heap = make_env () in
    let layout = layout_for heap k in
    let binding = Memops.Layout.find layout "a" in
    let cap =
      match Cheri.Cap.set_bounds Cheri.Cap.root ~base:binding.Memops.Layout.base ~length:16 with
      | Ok c -> c
      | Error _ -> assert false
    in
    Tagmem.Mem.store_cap mem ~addr:binding.Memops.Layout.base cap;
    let _ = run_engine ~naive mem k layout in
    Tagmem.Mem.tag_at mem ~addr:binding.Memops.Layout.base
  in
  checkb "clean path clears" false (run ~naive:false);
  checkb "naive path preserves" true (run ~naive:true)

(* ---------------- replay ---------------- *)

let trace_of_events events =
  let t = Accel.Trace.create () in
  List.iter (Accel.Trace.add t) events
  |> fun () -> t

let ev ?(gap = 0) ?(kind = Guard.Iface.Read) ?(dependent = false) ?(latency = 0)
    beats =
  { Accel.Trace.gap; kind; beats; dependent; latency }

let replay streams =
  Accel.Replay.run (Bus.Fabric.create bus) ~start:0
    (List.mapi
       (fun idx (trace, outstanding) ->
         { Accel.Replay.instance = idx; trace; max_outstanding = outstanding })
       streams)

let test_replay_empty () =
  let r = replay [ (Accel.Trace.create (), 4) ] in
  checki "empty completes at start" 0 r.Accel.Replay.makespan

let test_replay_single_read () =
  let r = replay [ (trace_of_events [ ev 1 ], 4) ] in
  checki "address phase + beat + latency" (ap + 1 + bus.Bus.Params.read_latency)
    r.Accel.Replay.makespan

let test_replay_dependent_chain () =
  let per = ap + 1 + bus.Bus.Params.read_latency in
  let r = replay [ (trace_of_events [ ev ~dependent:true 1; ev ~dependent:true 1 ], 4) ] in
  checki "serial chain" (2 * per) r.Accel.Replay.makespan

let test_replay_streaming_pipelines () =
  let events = List.init 8 (fun _ -> ev 1) in
  let r = replay [ (trace_of_events events, 8) ] in
  (* Each transaction occupies addr_phase + 1 beat; the last read completes
     a memory latency after its data. *)
  checki "pipelined" ((8 * (ap + 1)) + bus.Bus.Params.read_latency)
    r.Accel.Replay.makespan

let test_replay_outstanding_limit_throttles () =
  let events = List.init 8 (fun _ -> ev 1) in
  let deep = (replay [ (trace_of_events events, 8) ]).Accel.Replay.makespan in
  let shallow = (replay [ (trace_of_events events, 1) ]).Accel.Replay.makespan in
  checkb "limit hurts" true (shallow > deep)

let test_replay_guard_latency_exposed_on_dependent () =
  let base = (replay [ (trace_of_events [ ev ~dependent:true 1 ], 4) ]).Accel.Replay.makespan in
  let with_lat =
    (replay [ (trace_of_events [ ev ~dependent:true ~latency:2 1 ], 4) ]).Accel.Replay.makespan
  in
  checki "latency added" (base + 2) with_lat

let test_replay_guard_latency_hidden_on_streaming () =
  let events = List.init 16 (fun _ -> ev 1) in
  let base = (replay [ (trace_of_events events, 16) ]).Accel.Replay.makespan in
  let events_l = List.init 16 (fun _ -> ev ~latency:2 1) in
  let with_lat = (replay [ (trace_of_events events_l, 16) ]).Accel.Replay.makespan in
  checki "only the tail shows" (base + 2) with_lat

let test_replay_contention () =
  let stream () = trace_of_events (List.init 16 (fun _ -> ev 1)) in
  let one = (replay [ (stream (), 16) ]).Accel.Replay.makespan in
  let two = replay [ (stream (), 16); (stream (), 16) ] in
  checkb "two instances take longer" true (two.Accel.Replay.makespan > one);
  checki "beats add up" 32 two.Accel.Replay.bus_beats;
  (* The shared bus serializes beats: makespan at least total beats. *)
  checkb "bus is the floor" true (two.Accel.Replay.makespan >= 32)

let test_replay_posted_writes () =
  let events = List.init 8 (fun _ -> ev ~kind:Guard.Iface.Write 1) in
  let r = replay [ (trace_of_events events, 1) ] in
  (* Writes are posted: even with outstanding=1 they stream back to back. *)
  checki "write stream" (8 * (ap + 1)) r.Accel.Replay.makespan

let prop_replay_makespan_bounds =
  QCheck.Test.make ~count:100 ~name:"makespan >= max(total beats, chain length)"
    QCheck.(small_list (pair bool (int_range 1 4)))
    (fun spec ->
      let events = List.map (fun (dep, beats) -> ev ~dependent:dep beats) spec in
      let total_beats = List.fold_left (fun a e -> a + e.Accel.Trace.beats) 0 events in
      let r = replay [ (trace_of_events events, 2) ] in
      r.Accel.Replay.makespan >= total_beats
      && r.Accel.Replay.bus_beats = total_beats)

(* ---- Replay.run against a linear-scan reference ---- *)

(* The arbitration [Replay.run] had before it ordered its instances in a
   heap: a fold over every live instance per grant, keeping the earliest
   candidate cycle and, on a tie, the first-listed instance.  Kept here as
   the oracle for the grant order, results and fault-draw order. *)
module Scan_replay = struct
  type st = {
    id : int;
    trace : Accel.Trace.t;
    n : int;
    limit : int;
    mutable next : int;
    mutable ready : int;
    outstanding : int Queue.t;
    mutable finish : int;
    mutable event_retries : int;
    mutable failed : bool;
  }

  let candidate_time st =
    let ev = Accel.Trace.get st.trace st.next in
    let cand = st.ready + ev.Accel.Trace.gap in
    if
      ev.Accel.Trace.kind = Guard.Iface.Read && (not ev.Accel.Trace.dependent)
      && Queue.length st.outstanding >= st.limit
    then max cand (Queue.peek st.outstanding)
    else cand

  let run ~error_retry_limit fabric ~start streams =
    let errors = ref 0 in
    let states =
      List.map
        (fun (s : Accel.Replay.stream) ->
          { id = s.instance; trace = s.trace; n = Accel.Trace.length s.trace;
            limit = max 1 s.max_outstanding; next = 0; ready = start;
            outstanding = Queue.create (); finish = start; event_retries = 0;
            failed = false })
        streams
    in
    let rec step () =
      let best =
        List.fold_left
          (fun acc st ->
            if st.next >= st.n then acc
            else
              let cand = candidate_time st in
              match acc with
              | Some (_, best_cand) when best_cand <= cand -> acc
              | Some _ | None -> Some (st, cand))
          None states
      in
      match best with
      | None -> ()
      | Some (st, cand) ->
          let ev = Accel.Trace.get st.trace st.next in
          (if ev.Accel.Trace.kind = Guard.Iface.Read && (not ev.Accel.Trace.dependent)
              && Queue.length st.outstanding >= st.limit
           then ignore (Queue.pop st.outstanding));
          let is_read = ev.Accel.Trace.kind = Guard.Iface.Read in
          let grant =
            Bus.Fabric.request ~src:st.id fabric ~at:cand ~beats:ev.Accel.Trace.beats
              ~is_read ~extra_latency:ev.Accel.Trace.latency
          in
          if grant.Bus.Fabric.errored then begin
            incr errors;
            st.finish <- max st.finish grant.Bus.Fabric.completed;
            if st.event_retries >= error_retry_limit then begin
              st.failed <- true;
              st.next <- st.n
            end
            else begin
              st.event_retries <- st.event_retries + 1;
              st.ready <- grant.Bus.Fabric.completed + Accel.Flow.error_turnaround
            end
          end
          else begin
            st.event_retries <- 0;
            st.next <- st.next + 1;
            match (ev.Accel.Trace.kind, ev.Accel.Trace.dependent) with
            | Guard.Iface.Write, _ ->
                st.ready <- grant.Bus.Fabric.granted_at + 1;
                st.finish <- max st.finish grant.Bus.Fabric.data_done
            | Guard.Iface.Read, true ->
                st.ready <- grant.Bus.Fabric.completed;
                st.finish <- max st.finish grant.Bus.Fabric.completed
            | Guard.Iface.Read, false ->
                Queue.push grant.Bus.Fabric.completed st.outstanding;
                st.ready <- grant.Bus.Fabric.granted_at + 1;
                st.finish <- max st.finish grant.Bus.Fabric.completed
          end;
          step ()
    in
    step ();
    {
      Accel.Replay.makespan =
        List.fold_left (fun acc st -> max acc st.finish) start states;
      per_instance = List.map (fun st -> (st.id, st.finish)) states;
      bus_beats = Bus.Fabric.total_beats fabric;
      bus_errors = !errors;
      failed = List.filter_map (fun st -> if st.failed then Some st.id else None) states;
    }
end

(* A replay case: a small pool of traces that the streams pick from (so
   identical traces, and ties on every step, are common), the per-stream
   outstanding depth, and the start cycle. *)
type replay_case = {
  pool : Accel.Trace.event list array;
  picks : (int * int) list;  (* (pool index, max_outstanding) per stream *)
  start : int;
}

let gen_event =
  QCheck.Gen.(
    map
      (fun (k, gap, beats, latency) ->
        let kind, dependent =
          match k with
          | 0 -> (Guard.Iface.Write, false)
          | 1 -> (Guard.Iface.Read, true)
          | _ -> (Guard.Iface.Read, false)
        in
        ev ~gap ~kind ~dependent ~latency beats)
      (quad (int_bound 3) (int_bound 6) (int_range 1 8) (int_bound 4)))

let gen_replay_case =
  QCheck.Gen.(
    let trace =
      frequency [ (1, return []); (5, list_size (int_range 1 16) gen_event) ]
    in
    array_size (int_range 1 4) trace >>= fun pool ->
    list_size (int_range 1 12)
      (pair (int_bound (Array.length pool - 1)) (int_range 1 8))
    >>= fun picks ->
    map (fun start -> { pool; picks; start }) (int_bound 50))

let print_replay_case c =
  let kind (e : Accel.Trace.event) =
    match (e.Accel.Trace.kind, e.Accel.Trace.dependent) with
    | Guard.Iface.Write, _ -> "W"
    | Guard.Iface.Read, true -> "D"
    | Guard.Iface.Read, false -> "R"
  in
  let trace evs =
    String.concat " "
      (List.map
         (fun (e : Accel.Trace.event) ->
           Printf.sprintf "%s%d/g%d/l%d" (kind e) e.Accel.Trace.beats
             e.Accel.Trace.gap e.Accel.Trace.latency)
         evs)
  in
  Printf.sprintf "start %d\n%s\nstreams %s" c.start
    (String.concat "\n"
       (Array.to_list (Array.mapi (fun i evs -> Printf.sprintf "t%d: [%s]" i (trace evs)) c.pool)))
    (String.concat " "
       (List.map (fun (p, o) -> Printf.sprintf "t%d/o%d" p o) c.picks))

let arb_replay_case = QCheck.make ~print:print_replay_case gen_replay_case

(* Run [replay] on a fresh traced fabric; the result plus every Bus_grant in
   emission order. *)
let replay_with_grants ?faults replay c =
  let traces = Array.map trace_of_events c.pool in
  let streams =
    List.mapi
      (fun idx (p, max_outstanding) ->
        { Accel.Replay.instance = idx; trace = traces.(p); max_outstanding })
      c.picks
  in
  let obs = Obs.Trace.create () in
  let faults = Option.map Fault.Injector.create faults in
  let fabric = Bus.Fabric.create ~obs ?faults bus in
  let r = replay fabric ~start:c.start streams in
  assert (Obs.Trace.dropped obs = 0);
  let grants =
    List.filter
      (fun e ->
        match e.Obs.Event.data with Obs.Event.Bus_grant _ -> true | _ -> false)
      (Obs.Trace.events obs)
  in
  (r, grants)

let prop_replay_matches_scan =
  QCheck.Test.make ~count:300 ~name:"replay = linear-scan reference (results, grant order)"
    arb_replay_case
    (fun c ->
      replay_with_grants (fun fabric ~start s -> Accel.Replay.run fabric ~start s) c
      = replay_with_grants (Scan_replay.run ~error_retry_limit:4) c)

let prop_replay_matches_scan_faulted =
  QCheck.Test.make ~count:300
    ~name:"replay = linear-scan reference under bus errors and stalls"
    QCheck.(triple arb_replay_case (int_bound 1000) (int_bound 2))
    (fun (c, seed, error_retry_limit) ->
      let faults =
        { Fault.Plan.none with
          Fault.Plan.seed; bus_stall_prob = 0.2; bus_stall_max = 6;
          bus_error_prob = 0.3 }
      in
      replay_with_grants ~faults (Accel.Replay.run ~error_retry_limit) c
      = replay_with_grants ~faults (Scan_replay.run ~error_retry_limit) c)

(* The faulted leg only pins the retry and failure paths if its inputs reach
   them: over a fixed sample, some runs must retry an errored grant and
   finish, and some must exhaust the budget. *)
let test_replay_fault_leg_reaches_retry_and_failure () =
  let rand = Random.State.make [| 14 |] in
  let retried = ref 0 and failed = ref 0 in
  for seed = 1 to 200 do
    let c = QCheck.Gen.generate1 ~rand gen_replay_case in
    let faults =
      { Fault.Plan.none with
        Fault.Plan.seed; bus_stall_prob = 0.2; bus_stall_max = 6;
        bus_error_prob = 0.3 }
    in
    let r, _ =
      replay_with_grants ~faults (Accel.Replay.run ~error_retry_limit:(seed mod 3)) c
    in
    if r.Accel.Replay.bus_errors > List.length r.Accel.Replay.failed then incr retried;
    if r.Accel.Replay.failed <> [] then incr failed
  done;
  checkb "some runs retry" true (!retried > 0);
  checkb "some runs fail" true (!failed > 0)

(* [Obs.Counters.replay_grants] counts every fabric request the replay
   makes: one per event without faults, plus one per errored attempt. *)
let test_replay_grants_counter () =
  let k = 7 and n = 5 in
  let trace =
    trace_of_events
      (List.init k (fun j ->
           match j mod 3 with
           | 0 -> ev ~kind:Guard.Iface.Write 2
           | 1 -> ev ~dependent:true 1
           | _ -> ev ~gap:1 3))
  in
  let streams =
    List.init n (fun instance ->
        { Accel.Replay.instance; trace; max_outstanding = 2 })
  in
  let grants_of f =
    let before = Obs.Counters.get Obs.Counters.replay_grants in
    let r = f () in
    (r, Obs.Counters.get Obs.Counters.replay_grants - before)
  in
  let _, clean =
    grants_of (fun () -> Accel.Replay.run (Bus.Fabric.create bus) ~start:0 streams)
  in
  checki "n * k grants without faults" (n * k) clean;
  let faults =
    Fault.Injector.create
      { Fault.Plan.none with Fault.Plan.seed = 5; bus_error_prob = 0.3 }
  in
  let r, faulted =
    grants_of (fun () ->
        Accel.Replay.run ~error_retry_limit:1000 (Bus.Fabric.create ~faults bus)
          ~start:0 streams)
  in
  checkb "errors injected" true (r.Accel.Replay.bus_errors > 0);
  checkb "no instance failed" true (r.Accel.Replay.failed = []);
  checki "plus one per errored retry" ((n * k) + r.Accel.Replay.bus_errors) faulted

(* The replay step allocates only the fabric's grant record (four fields
   plus a header): picking the next instance and tracking the outstanding
   reads allocate nothing, so the total is 5 words per grant plus a set-up
   cost per instance. *)
let test_replay_step_allocates_only_grants () =
  let k = 400 and n = 12 in
  let trace =
    trace_of_events
      (List.init k (fun j ->
           match j mod 4 with
           | 0 -> ev ~kind:Guard.Iface.Write 2
           | 1 -> ev ~dependent:true 1
           | _ -> ev ~gap:(j mod 3) 4))
  in
  let streams =
    List.init n (fun instance ->
        { Accel.Replay.instance; trace; max_outstanding = 1 + (instance mod 4) })
  in
  let fabric = Bus.Fabric.create bus in
  let before = Gc.minor_words () in
  let r = Accel.Replay.run fabric ~start:0 streams in
  let words = Gc.minor_words () -. before in
  checki "no errors" 0 r.Accel.Replay.bus_errors;
  let bound = float_of_int ((5 * n * k) + (64 * n) + 64) in
  if words > bound then
    Alcotest.failf "%.0f minor words for %d grants (bound %.0f)" words (n * k) bound

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_replay_makespan_bounds; prop_replay_matches_scan;
      prop_replay_matches_scan_faulted ]

(* ---- get/iter vs the events snapshot ---- *)

let test_trace_access_parity () =
  let evs = List.init 9 (fun i -> ev ~dependent:(i mod 3 = 0) (1 + (i mod 4))) in
  let t = trace_of_events evs in
  let snapshot = Accel.Trace.events t in
  checki "length" (List.length evs) (Accel.Trace.length t);
  Array.iteri
    (fun i e ->
      Alcotest.(check bool) "get matches snapshot" true (Accel.Trace.get t i = e))
    snapshot;
  let collected = ref [] in
  Accel.Trace.iter (fun e -> collected := e :: !collected) t;
  Alcotest.(check bool) "iter matches snapshot in order" true
    (List.rev !collected = Array.to_list snapshot);
  Alcotest.(check bool) "get bounds checked" true
    (try
       ignore (Accel.Trace.get t (Accel.Trace.length t));
       false
     with Invalid_argument _ -> true)

let test_trace_snapshot_is_stable () =
  (* [events] is a copy: growing the trace afterwards must not change it. *)
  let t = trace_of_events [ ev 2; ev 3 ] in
  let snapshot = Accel.Trace.events t in
  Accel.Trace.add t (ev 4);
  checki "snapshot keeps its length" 2 (Array.length snapshot);
  checki "trace grew" 3 (Accel.Trace.length t);
  Alcotest.(check bool) "new event visible via get" true
    (Accel.Trace.get t 2 = ev 4)

let suite =
  [
    ("burst merge contiguous", `Quick, test_burst_merge_contiguous);
    ("burst max length", `Quick, test_burst_respects_max);
    ("burst packs small elements", `Quick, test_burst_small_elements_share_beats);
    ("no merge on gap", `Quick, test_no_merge_on_gap);
    ("no merge on kind", `Quick, test_no_merge_on_kind_change);
    ("no merge noncontiguous", `Quick, test_no_merge_noncontiguous);
    ("no merge dependent", `Quick, test_no_merge_dependent);
    ("engine functional", `Quick, test_engine_functional);
    ("engine counts checks", `Quick, test_engine_checks_counted);
    ("engine denial aborts", `Quick, test_engine_denial_aborts);
    ("engine bus error", `Quick, test_engine_bus_error_out_of_dram);
    ("engine tag discipline", `Quick, test_engine_tag_discipline);
    ("replay empty", `Quick, test_replay_empty);
    ("replay single read", `Quick, test_replay_single_read);
    ("replay dependent chain", `Quick, test_replay_dependent_chain);
    ("replay streaming pipelines", `Quick, test_replay_streaming_pipelines);
    ("replay outstanding throttles", `Quick, test_replay_outstanding_limit_throttles);
    ("replay latency on dependent", `Quick, test_replay_guard_latency_exposed_on_dependent);
    ("replay latency hidden streaming", `Quick, test_replay_guard_latency_hidden_on_streaming);
    ("replay contention", `Quick, test_replay_contention);
    ("replay posted writes", `Quick, test_replay_posted_writes);
    ("trace get/iter parity", `Quick, test_trace_access_parity);
    ("trace snapshot stable", `Quick, test_trace_snapshot_is_stable);
    ("replay fault leg reaches retry and failure", `Quick,
      test_replay_fault_leg_reaches_retry_and_failure);
    ("replay grants counter", `Quick, test_replay_grants_counter);
    ("replay step allocates only grants", `Quick,
      test_replay_step_allocates_only_grants);
  ]
  @ qsuite
