(* One cold repetition of a capsim benchmark workload.

     capbench.exe WORKLOAD SEED SPAWN_TIME OUT_FILE TRACE CALIB

   sets WORKLOAD up, runs its batch of items once, checks every simulated
   result, and writes one JSON record to OUT_FILE: host timings, the
   order-independent digest of the simulated results, deterministic work
   counts and, when TRACE is 1, host spans.  perfbench/run.py starts one
   process per repetition, so every repetition pays cold caches, and
   aggregates the records.  SPAWN_TIME is the parent's wall clock just before
   it started this process, so set-up includes process start and module
   initialisation.  CALIB is the machine-speed reference program
   (perfbench/_ocaml/calib), run in step with the batch.

   Every host time in the record is raw, in seconds after SPAWN_TIME;
   run.py rescales them to the reference speed.

   Only public library calls are made ([Soc.Run], [Soc.Fastpath],
   [Serve.Loop], [Verify.Space], [Verify.Explore], [Verify.Engine]) and the
   spans are recorded around them from here, so every layer is timed from
   outside. *)

module J = Obs.Json

let now = Unix.gettimeofday

(* ---- host spans ---------------------------------------------------- *)

(* (name, start, end, parent, item) with times relative to the spawn time;
   parent and item are -1 when absent.  Kept in memory, written at exit. *)
module Spans = struct
  let on = ref false
  let origin = ref 0.0
  let closed : J.t list ref = ref []
  let next = ref 0
  let stack : (int * int) list ref = ref []  (* (id, item) of open spans *)

  (* [name] sees the call's result: whether an accelerator run recorded or
     derived its script is only known once it returns.  A span without
     [item] belongs to its parent's item. *)
  let span_k ?item name f =
    if not !on then f ()
    else begin
      let id = !next in
      incr next;
      let parent, outer =
        match !stack with (p, i) :: _ -> (p, i) | [] -> (-1, -1)
      in
      let item = Option.value ~default:outer item in
      stack := (id, item) :: !stack;
      let t0 = now () in
      let close label =
        let t1 = now () in
        stack := List.tl !stack;
        closed :=
          J.Obj
            [ ("id", J.Int id); ("name", J.String label);
              ("start", J.Float (t0 -. !origin));
              ("end", J.Float (t1 -. !origin));
              ("parent", J.Int parent); ("item", J.Int item) ]
          :: !closed
      in
      match f () with
      | v ->
          close (name v);
          v
      | exception e ->
          close "error";
          raise e
    end

  let span ?item name f = span_k ?item (fun _ -> name) f
end

(* ---- machine-speed reference ------------------------------------------ *)

(* Reference rounds, taken before set-up, before the first item, every
   [every] seconds between items and after the last one.  The workload
   waits while a round runs; run.py leaves these waits out of every host
   time and scales the time between two rounds by their measured speed. *)
module Calib = struct
  let every = 0.25
  let proc = ref None
  let samples : (float * float * float) list ref = ref []  (* start, end, round s *)
  let last = ref 0.0

  let sample ?(t0 = now ()) () =
    match !proc with
    | None -> ()
    | Some (ic, oc) ->
        output_string oc "\n";
        flush oc;
        let d = Scanf.sscanf (input_line ic) "%f %_d" Fun.id in
        let t1 = now () in
        samples := (t0, t1, d) :: !samples;
        last := t1

  let stop () =
    Option.iter (fun p -> ignore (Unix.close_process p : Unix.process_status))
      !proc;
    proc := None

  let start path =
    let t0 = now () in
    proc := Some (Unix.open_process_args path [| path |]);
    at_exit stop;
    sample ~t0 ()

  let maybe () = if now () -. !last >= every then sample ()
end

(* ---- deterministic work counts -------------------------------------- *)

let counts : (string, float) Hashtbl.t = Hashtbl.create 64
let bump name v =
  Hashtbl.replace counts name
    (v +. Option.value ~default:0.0 (Hashtbl.find_opt counts name))
let bumpi name v = bump name (float_of_int v)

(* host intervals taken outside the spans (not deterministic) *)
let timings : (string * float * float) list ref = ref []

let cpu_results () =
  Option.value ~default:0 (List.assoc_opt "cpu_results" (Soc.Fastpath.stats ()))

(* ---- items ---------------------------------------------------------- *)

type outcome = {
  key : string;  (** canonical rendering of the item's simulated result *)
  cycles : int;  (** simulated cycles the item covered *)
  failure : string option;
}

let outcome ?failure ~cycles key = { key; cycles; failure }

let result_key prefix (r : Soc.Run.result) =
  let p = r.Soc.Run.phases in
  let f = r.Soc.Run.faults in
  Printf.sprintf "%s|%s|%s|%d|%d,%d,%d,%d|%d|%b|%s|%d|%d|%d|%d|%d|%h|%d|%d|%d"
    prefix r.Soc.Run.config_label r.Soc.Run.benchmark r.Soc.Run.tasks
    p.Soc.Run.alloc p.Soc.Run.init p.Soc.Run.compute p.Soc.Run.teardown
    r.Soc.Run.wall r.Soc.Run.correct
    (String.concat ";"
       (List.map
          (fun (d : Guard.Iface.denial) -> d.Guard.Iface.code ^ ":" ^ d.detail)
          r.Soc.Run.denials))
    r.Soc.Run.checks r.Soc.Run.elided_checks r.Soc.Run.entries_peak
    r.Soc.Run.bus_beats r.Soc.Run.area_luts r.Soc.Run.power_mw
    r.Soc.Run.recovered
    (List.length r.Soc.Run.fallbacks)
    (f.Fault.Injector.bus_errors + f.Fault.Injector.guard_denials
   + f.Fault.Injector.alloc_fails + f.Fault.Injector.retries)

let run_outcome prefix (r : Soc.Run.result) =
  outcome
    ?failure:(if r.Soc.Run.correct then None else Some (prefix ^ " incorrect"))
    ~cycles:r.Soc.Run.wall (result_key prefix r)

type workload = {
  items : (string * (unit -> outcome)) list;  (** batch order *)
  post : unit -> string list;
      (** checks over the whole batch, run after the clock stops; each
          returned string is one failed check *)
  post_attempted : int;  (** checks [post] makes *)
  throughput_items : int;  (** input-defined items for [items_per_s] *)
}

let shuffle seed xs =
  let a = Array.of_list xs in
  let st = Random.State.make [| seed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Golden references and HLS designs are memoized per process; forcing them
   here keeps their cost inside set-up. *)
let warm benches =
  Spans.span "machsuite.golden" (fun () ->
      List.iter
        (fun b -> ignore (Machsuite.Bench_def.golden b : (string * _) list))
        benches);
  Spans.span "hls.synthesize" (fun () ->
      List.iter
        (fun (b : Machsuite.Bench_def.t) ->
          ignore
            (Hls.Directives.synthesize ~kernel:b.Machsuite.Bench_def.kernel
               b.Machsuite.Bench_def.directives
              : Hls.Directives.design))
        benches)

(* One Soc.Run call with the kernel-interpretation and script bookkeeping
   read from the public counters around it.  [span] names the call's span
   from whether it derived the accelerator stream from a recorded script. *)
let soc_run ~span ~hetero ~tasks ~engine call =
  let memo0 = Obs.Counters.get Obs.Counters.traces_memoized in
  let cpu0 = cpu_results () in
  let leaped0 = Obs.Counters.get Obs.Counters.periods_leaped in
  let r, words =
    Spans.span_k
      (fun _ ->
        span ~derived:(Obs.Counters.get Obs.Counters.traces_memoized > memo0))
      (fun () ->
        let words0 = Gc.minor_words () in
        let r = call () in
        (r, Gc.minor_words () -. words0))
  in
  let memo = Obs.Counters.get Obs.Counters.traces_memoized - memo0 in
  let derived = memo > 0 in
  if hetero then begin
    bumpi "accel.runs" 1;
    if derived then bumpi "accel.script_hits" 1
    else bumpi "kernel.interpretations" 1;
    (* the replay engine interprets the lead task and replicates its stream;
       the event engine runs every instance live *)
    bumpi "kernel.interpreted_tasks"
      (match engine with
      | Soc.Run.Legacy_replay -> if derived then 0 else 1
      | Soc.Run.Event_driven -> tasks - memo)
  end
  else begin
    let cpu = cpu_results () - cpu0 in
    bumpi "kernel.interpretations" cpu;
    bumpi "kernel.interpreted_tasks" cpu
  end;
  bumpi "capchecker.checks" r.Soc.Run.checks;
  bumpi "bus.beats" r.Soc.Run.bus_beats;
  (r, words, Obs.Counters.get Obs.Counters.periods_leaped - leaped0)

(* ---- paper_replay ----------------------------------------------------- *)

(* The §6 matrix as [bench] builds it: per MachSuite bench, cpu and
   ccpu+accel with one task, then the five evaluated configs with eight.
   The six costliest benches (backprop, viterbi, stencil2d, stencil3d,
   sort_radix, gemm_blocked: two thirds of the full matrix's time) are left
   out so that one cold repetition takes a few seconds. *)
let paper_benches =
  [ "aes"; "bfs_bulk"; "bfs_queue"; "fft_strided"; "fft_transpose";
    "gemm_ncubed"; "kmp"; "md_grid"; "md_knn"; "nw"; "sort_merge";
    "spmv_crs"; "spmv_ellpack" ]

let paper_replay seed =
  let benches = List.map Machsuite.Registry.find paper_benches in
  warm benches;
  let proven = Hashtbl.create 32 in
  let item (config, tasks, (b : Machsuite.Bench_def.t)) () =
    let name = b.Machsuite.Bench_def.name in
    if not (Hashtbl.mem proven name) then begin
      Hashtbl.add proven name ();
      ignore (Spans.span "analysis.proven" (fun () -> Soc.Fastpath.proven b))
    end;
    let hetero = match config with Soc.Config.Cpu_only _ -> false | _ -> true in
    let r, _, _ =
      soc_run ~hetero ~tasks ~engine:Soc.Run.Legacy_replay
        ~span:(fun ~derived ->
          if not hetero then "cpu.run"
          else if derived then "accel.derive"
          else "accel.record")
        (fun () -> Soc.Run.run ~tasks config b)
    in
    run_outcome "" r
  in
  let points =
    List.concat_map
      (fun b ->
        (Soc.Config.cpu, 1, b) :: (Soc.Config.ccpu_accel, 1, b)
        :: List.map (fun c -> (c, 8, b)) Soc.Config.evaluated)
      benches
  in
  let items =
    List.map
      (fun ((c, t, (b : Machsuite.Bench_def.t)) as p) ->
        (Printf.sprintf "%s/%s/%d" b.Machsuite.Bench_def.name
           (Soc.Config.label c) t, item p))
      points
  in
  { items = shuffle seed items; post = (fun () -> []); post_attempted = 0;
    throughput_items = List.length items }

(* ---- event_grid ------------------------------------------------------ *)

let grid_columns =
  [ ("shared_central", Bus.Topology.Shared, Capchecker.Shim.Central);
    ("xbar4_central", Bus.Topology.Crossbar { banks = 4 },
     Capchecker.Shim.Central);
    ("xbar4_shim", Bus.Topology.Crossbar { banks = 4 },
     Capchecker.Shim.Distributed);
    ("hier4_shim", Bus.Topology.Hierarchical { clusters = 4 },
     Capchecker.Shim.Distributed) ]

let grid_tasks = [ 2; 4; 8 ]

(* Benches of the shared-bus part: the four where periodic leaping fires on
   a script-derived run (gemm_ncubed, gemm_blocked, fft_transpose,
   spmv_ellpack) and four where it does not.  Each runs at two and at eight
   tasks, so the eight-task run derives from the script the two-task run
   recorded. *)
let mix_benches =
  [ "gemm_ncubed"; "gemm_blocked"; "fft_transpose"; "spmv_ellpack"; "aes";
    "md_knn"; "spmv_crs"; "bfs_bulk" ]

let mix_tasks = [ 2; 8 ]

(* Event-engine runs of ccpu+caccel: kmp at rising task counts across the
   four interconnect columns of the [interconnect] section, and the mix
   benches on the shared bus (column [shared_mix]).  The seed shuffles the
   items within each task count and task counts ascend: the event engine
   interprets every instance of a bench's first run, so each bench's first
   run must be its smallest for the work to be the same for every seed. *)
let event_grid seed =
  let kmp = Machsuite.Registry.find "kmp" in
  let benches = List.map Machsuite.Registry.find mix_benches in
  warm (kmp :: benches);
  let kmp_results = Hashtbl.create 32 in
  let ev_run ~col ~part ~tasks call =
    let r, words, leaped =
      soc_run ~hetero:true ~tasks ~engine:Soc.Run.Event_driven
        ~span:(fun ~derived:_ -> "soc.event_run." ^ col)
        call
    in
    bumpi ("bus.beats." ^ col) r.Soc.Run.bus_beats;
    bump ("gc.minor_words." ^ col) words;
    bumpi ("ccsim.periods_leaped." ^ part) leaped;
    if part = "interconnect" then Hashtbl.replace kmp_results (tasks, col) r;
    run_outcome col r
  in
  let kmp_items =
    List.concat_map
      (fun tasks ->
        List.map
          (fun (col, topology, checkers) ->
            ( Printf.sprintf "kmp/%s/%d" col tasks, tasks,
              fun () ->
                ev_run ~col ~part:"interconnect" ~tasks (fun () ->
                    Soc.Run.run ~tasks ~instances:tasks ~cc_entries:512
                      ~engine:Soc.Run.Event_driven ~topology ~checkers
                      Soc.Config.ccpu_caccel kmp) ))
          grid_columns)
      grid_tasks
  in
  let mix_items =
    List.concat_map
      (fun tasks ->
        List.map
          (fun (b : Machsuite.Bench_def.t) ->
            ( Printf.sprintf "%s/shared_mix/%d" b.Machsuite.Bench_def.name
                tasks, tasks,
              fun () ->
                ev_run ~col:"shared_mix" ~part:"mix" ~tasks (fun () ->
                    Soc.Run.run ~tasks ~engine:Soc.Run.Event_driven
                      Soc.Config.ccpu_caccel b) ))
          benches)
      mix_tasks
  in
  (* Verdict parity: within a task-count row every topology column reports
     the same checks, denials and bus beats. *)
  let parity () =
    List.filter_map
      (fun tasks ->
        let verdict (col, _, _) =
          Option.map
            (fun (r : Soc.Run.result) ->
              (r.Soc.Run.correct, r.Soc.Run.checks, r.Soc.Run.denials,
               r.Soc.Run.bus_beats))
            (Hashtbl.find_opt kmp_results (tasks, col))
        in
        match List.map verdict grid_columns with
        | Some first :: rest when List.for_all (( = ) (Some first)) rest -> None
        | _ ->
            Some
              (Printf.sprintf "kmp/%d: verdicts differ across columns" tasks))
      grid_tasks
  in
  let items =
    List.stable_sort
      (fun (_, t, _) (_, t', _) -> compare t t')
      (shuffle seed (kmp_items @ mix_items))
    |> List.map (fun (label, _, f) -> (label, f))
  in
  { items; post = parity;
    post_attempted = List.length grid_tasks;
    throughput_items = List.length items }

(* ---- serve_churn ------------------------------------------------------ *)

let serve_tenants = 1024
let serve_requests = 12_500
let serve_churn_pct = 25

(* Independent horizons per repetition; each is one item. *)
let serve_calls = 12

(* Workload seeds with a pinned digest: the serve seeds derive from the
   workload seed modulo this. *)
let serve_seeds = 64

(* [Serve.Loop.run] on 1024 tenants sharing a 256-entry checker table with
   25% churn.  The kernel mix is profiled once per process, by the first
   call. *)
let serve_churn seed =
  let base_seed = ((seed mod serve_seeds) + serve_seeds) mod serve_seeds in
  let params i =
    let base =
      Serve.Loop.default_params ~seed:((base_seed * serve_calls) + i)
        ~tenants:serve_tenants ~requests:serve_requests ()
    in
    { base with
      Serve.Loop.sv_workload =
        { base.Serve.Loop.sv_workload with
          Serve.Workload.churn_pct = serve_churn_pct } }
  in
  warm
    (List.map
       (fun (name, _) -> Machsuite.Registry.find name)
       (params 0).Serve.Loop.sv_workload.Serve.Workload.mix);
  let item params () =
    let r, words =
      Spans.span "serve.run" (fun () ->
          let words0 = Gc.minor_words () in
          let r = Serve.Loop.run params in
          (r, Gc.minor_words () -. words0))
    in
    bump "gc.minor_words.serve" words;
    let t = r.Serve.Report.rp_totals and s = r.Serve.Report.rp_table in
    bumpi "serve.requests" t.Serve.Report.t_requests;
    bumpi "serve.admitted" t.Serve.Report.t_admitted;
    bumpi "serve.thrash" (Serve.Report.thrash r);
    bumpi "capchecker.installs" s.Capchecker.Table.st_installs;
    bumpi "capchecker.evictions" s.Capchecker.Table.st_evictions;
    bumpi "capchecker.conflicts" s.Capchecker.Table.st_conflicts;
    outcome ~cycles:r.Serve.Report.rp_makespan
      ?failure:
        (if t.Serve.Report.t_requests <> serve_requests then
           Some "offered requests differ from the horizon"
         else if s.Capchecker.Table.st_live <> 0 then
           Some "checker table entries live after the horizon"
         else None)
      (Serve.Report.to_string r)
  in
  { items =
      List.init serve_calls (fun i ->
          (Printf.sprintf "serve/%d" i, item (params i)));
    post = (fun () -> []); post_attempted = 0;
    throughput_items = serve_calls * serve_requests }

(* ---- verify_box ------------------------------------------------------- *)

(* The default exhaustive box with two objects instead of three (648
   scenarios instead of 5832, so that one cold repetition takes a few
   seconds), under both checking placements. *)
let verify_box seed =
  let o = { Verify.Engine.default_opts with Verify.Engine.v_objs = 2 } in
  let dims checkers =
    { Verify.Space.d_accels = o.Verify.Engine.v_accels;
      d_objs = o.Verify.Engine.v_objs;
      d_obj_len = o.Verify.Engine.v_obj_len;
      d_depth = o.Verify.Engine.v_depth;
      d_topology = o.Verify.Engine.v_topology;
      d_checkers = checkers;
      d_mutation = o.Verify.Engine.v_mutation }
  in
  let scenarios =
    Spans.span "verify.scenarios" (fun () ->
        List.concat_map
          (fun c -> List.of_seq (Verify.Space.scenarios (dims c)))
          [ Capchecker.Shim.Distributed; Capchecker.Shim.Central ])
  in
  let sweep () =
    let sw =
      Spans.span "cheri.encoding_sweep" (fun () ->
          Verify.Space.encoding_sweep ~space_bits:o.Verify.Engine.v_space_bits)
    in
    outcome ~cycles:0 ?failure:sw.Verify.Space.sw_failure
      (Printf.sprintf "sweep|%d|%d|%s" sw.Verify.Space.sw_caps
         sw.Verify.Space.sw_checks
         (Option.value ~default:"ok" sw.Verify.Space.sw_failure))
  in
  let explore sc () =
    let out, words =
      Spans.span "verify.explore" (fun () ->
          let words0 = Gc.minor_words () in
          let out = Verify.Explore.explore sc in
          (out, Gc.minor_words () -. words0))
    in
    bump "gc.minor_words.explore" words;
    let st = out.Verify.Explore.o_stats in
    bumpi "verify.schedules" st.Verify.Explore.x_schedules;
    bumpi "verify.pruned" st.Verify.Explore.x_pruned;
    bumpi "verify.ops" st.Verify.Explore.x_ops;
    let verdict, failure =
      match out.Verify.Explore.o_violation with
      | None -> ("clean", None)
      | Some (v, _, _) ->
          let p = v.Verify.Harness.v_prop in
          (p, Some ("violation: " ^ p))
    in
    (* one grant per scheduler cycle: the ops executed are the cycles *)
    outcome ~cycles:st.Verify.Explore.x_ops ?failure
      (Verify.Model.token_of sc [] ^ "|" ^ verdict)
  in
  (* A verifier that checks less must fail: every seeded mutation of the
     checker is caught on the same box. *)
  let mutants =
    List.filter (fun (_, m) -> m <> Verify.Model.M_none) Verify.Model.mutations
  in
  let mutations () =
    List.filter_map
      (fun (name, m) ->
        let t0 = now () in
        let r = Verify.Engine.run { o with Verify.Engine.v_mutation = m } in
        timings := ("verify.mutation." ^ name, t0, now ()) :: !timings;
        if Verify.Engine.ok r then Some ("mutation not caught: " ^ name)
        else None)
      mutants
  in
  let items =
    ("sweep", sweep)
    :: shuffle seed
         (List.mapi (fun i sc -> (Printf.sprintf "scenario/%d" i, explore sc))
            scenarios)
  in
  { items; post = mutations;
    post_attempted = List.length mutants;
    throughput_items = List.length scenarios }

(* ---- one repetition -------------------------------------------------- *)

let workloads =
  [ ("paper_replay", paper_replay); ("event_grid", event_grid);
    ("serve_churn", serve_churn); ("verify_box", verify_box) ]

let () =
  match Array.to_list Sys.argv with
  | [ _; name; seed; spawn; out_file; trace; calib ] ->
      let build =
        match List.assoc_opt name workloads with
        | Some w -> w
        | None -> failwith ("unknown workload " ^ name)
      in
      let seed = int_of_string seed in
      let spawn = float_of_string spawn in
      Spans.on := trace = "1";
      Spans.origin := spawn;
      Calib.start calib;
      let w = Spans.span "setup" (fun () -> build seed) in
      (* cold start: no memo survives set-up into the timed batch *)
      Soc.Fastpath.clear ();
      Obs.Counters.reset ();
      Calib.sample ();
      let t_first = now () in
      let done_ =
        Array.of_list
          (List.mapi
             (fun i (label, f) ->
               Calib.maybe ();
               let t0 = now () in
               let o =
                 Spans.span ~item:i "item" (fun () ->
                     try f ()
                     with e ->
                       outcome ~cycles:0 ~failure:(Printexc.to_string e)
                         (label ^ "|raised"))
               in
               ((label, o), (t0, now ())))
             w.items)
      in
      let t_end = now () in
      Calib.sample ();
      Calib.stop ();
      let outcomes = Array.map fst done_ in
      let post_failures = w.post () in
      let failures =
        List.filter_map
          (fun (label, o) -> Option.map (fun f -> label ^ ": " ^ f) o.failure)
          (Array.to_list outcomes)
        @ post_failures
      in
      let digest =
        Array.to_list outcomes
        |> List.map (fun (_, o) -> Digest.to_hex (Digest.string o.key))
        |> List.sort compare |> String.concat "" |> Digest.string
        |> Digest.to_hex
      in
      List.iter
        (fun (n, v) -> bumpi ("counter." ^ n) v)
        (Obs.Counters.snapshot ());
      let gc = Gc.quick_stat () in
      let sim_cycles =
        Array.fold_left (fun acc (_, o) -> acc + o.cycles) 0 outcomes
      in
      let record =
        J.Obj
          [ ("workload", J.String name); ("seed", J.Int seed);
            ("traced", J.Bool !Spans.on);
            ("fast_path",
             J.String
               (Soc.Fastpath.mode_to_string (Soc.Fastpath.current_mode ())));
            ("event_ff",
             J.String
               (Ccsim.Eventff.mode_to_string (Ccsim.Eventff.current_mode ())));
            ("runcache",
             J.String (Option.value ~default:"unset" (Soc.Runcache.dir ())));
            ("t_first", J.Float (t_first -. spawn));
            ("t_end", J.Float (t_end -. spawn));
            ("calib",
             J.List
               (List.rev_map
                  (fun (a, b, d) ->
                    J.List [ J.Float (a -. spawn); J.Float (b -. spawn); J.Float d ])
                  !Calib.samples));
            ("attempted", J.Int (Array.length outcomes + w.post_attempted));
            ("failed", J.Int (List.length failures));
            ("failures", J.List (List.map (fun s -> J.String s) failures));
            ("digest", J.String digest);
            ("throughput_items", J.Int w.throughput_items);
            ("sim_cycles", J.Int sim_cycles);
            ("items",
             J.List
               (Array.to_list done_
               |> List.map (fun (_, (a, b)) ->
                      J.List [ J.Float (a -. spawn); J.Float (b -. spawn) ])));
            ("peak_heap_mb",
             J.Float (float_of_int (gc.Gc.top_heap_words * (Sys.word_size / 8))
                      /. 1048576.0));
            ("major_collections", J.Int gc.Gc.major_collections);
            ("counts",
             J.Obj
               (Hashtbl.fold (fun k v acc -> (k, J.Float v) :: acc) counts []
               |> List.sort compare));
            ("timings",
             J.Obj
               (List.rev_map
                  (fun (k, a, b) ->
                    (k, J.List [ J.Float (a -. spawn); J.Float (b -. spawn) ]))
                  !timings));
            ("spans", J.List (List.rev !Spans.closed)) ]
      in
      Out_channel.with_open_bin out_file (fun oc ->
          output_string oc (J.to_string record))
  | _ ->
      prerr_endline
        "usage: capbench.exe WORKLOAD SEED SPAWN_TIME OUT_FILE TRACE CALIB";
      exit 2
