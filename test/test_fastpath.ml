(* The script and proof-driven fast paths: every shortcut must be
   invisible.  The soc-level fast paths are pinned result-identical with
   fast-pathing on vs off. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ---------------- soc: fast == interpretive ---------------- *)

let with_mode m f =
  let prev = Soc.Fastpath.current_mode () in
  Soc.Fastpath.set_mode m;
  Fun.protect ~finally:(fun () -> Soc.Fastpath.set_mode prev) f

let soc_result_eq name (a : Soc.Run.result) (b : Soc.Run.result) =
  Alcotest.(check bool) (name ^ ": fast == interpretive") true (a = b)

(* Every kernel, both hetero configs, legacy engine: a cold fast run (records
   the script), a warm fast run at a different task count (derives from it,
   dodging the whole-run memo), and the interpretive ground truth must agree
   on the complete result record. *)
let test_soc_fast_matches_legacy () =
  Soc.Fastpath.clear ();
  List.iter
    (fun bench ->
      List.iter
        (fun config ->
          let go mode tasks =
            with_mode mode (fun () -> Soc.Run.run ~tasks config bench)
          in
          let cold = go Soc.Fastpath.Fast 2 in
          let slow = go Soc.Fastpath.Interpretive 2 in
          soc_result_eq (bench.Machsuite.Bench_def.name ^ " cold") cold slow;
          let warm = go Soc.Fastpath.Fast 3 in
          let slow3 = go Soc.Fastpath.Interpretive 3 in
          soc_result_eq (bench.Machsuite.Bench_def.name ^ " warm") warm slow3)
        [ Soc.Config.ccpu_accel; Soc.Config.ccpu_caccel ])
    (Machsuite.Registry.all)

(* CPU-only runs hit the cached model cycles on the warm run. *)
let test_soc_fast_matches_cpu () =
  Soc.Fastpath.clear ();
  List.iter
    (fun bench ->
      let go mode tasks =
        with_mode mode (fun () -> Soc.Run.run ~tasks Soc.Config.cpu bench)
      in
      let cold = go Soc.Fastpath.Fast 1 in
      soc_result_eq "cpu cold" cold (go Soc.Fastpath.Interpretive 1);
      soc_result_eq "cpu warm" (go Soc.Fastpath.Fast 4)
        (go Soc.Fastpath.Interpretive 4))
    (Machsuite.Registry.all)

(* Event engine, shared and crossbar topologies, plus mixed compositions:
   script-driven streams must land on the interpretive results. *)
let test_soc_fast_matches_event () =
  Soc.Fastpath.clear ();
  let benches =
    List.filteri (fun i _ -> i mod 4 = 0) (Machsuite.Registry.all)
  in
  List.iter
    (fun bench ->
      List.iter
        (fun topology ->
          let go mode tasks =
            with_mode mode (fun () ->
                Soc.Run.run ~tasks ~engine:Soc.Run.Event_driven ~topology
                  Soc.Config.ccpu_caccel bench)
          in
          soc_result_eq "event cold" (go Soc.Fastpath.Fast 2)
            (go Soc.Fastpath.Interpretive 2);
          soc_result_eq "event warm" (go Soc.Fastpath.Fast 3)
            (go Soc.Fastpath.Interpretive 3))
        [ Bus.Topology.Shared;
          Bus.Topology.Crossbar { banks = Bus.Topology.default_banks } ])
    benches;
  (* Mixed composition with a repeated bench: recorder claims deduplicate. *)
  match Machsuite.Registry.all with
  | b0 :: b1 :: _ ->
      let mix = [ b0; b1; b0 ] in
      List.iter
        (fun engine ->
          let go mode =
            with_mode mode (fun () ->
                Soc.Run.run_mixed ~engine Soc.Config.ccpu_caccel mix)
          in
          Soc.Fastpath.clear ();
          soc_result_eq "mixed cold" (go Soc.Fastpath.Fast)
            (go Soc.Fastpath.Interpretive);
          soc_result_eq "mixed warm" (go Soc.Fastpath.Fast)
            (go Soc.Fastpath.Interpretive))
        [ Soc.Run.Legacy_replay; Soc.Run.Event_driven ]
  | _ -> Alcotest.fail "registry empty"

(* Elision interplay: fast paths under Elide_on and Elide_differential must
   not disturb verdicts or counts. *)
let test_soc_fast_matches_elide () =
  Soc.Fastpath.clear ();
  let bench = Machsuite.Registry.find "gemm_ncubed" in
  List.iter
    (fun elide ->
      let go mode =
        with_mode mode (fun () ->
            Soc.Run.run ~tasks:2 ~elide Soc.Config.ccpu_caccel bench)
      in
      soc_result_eq "elide cold" (go Soc.Fastpath.Fast)
        (go Soc.Fastpath.Interpretive);
      soc_result_eq "elide warm" (go Soc.Fastpath.Fast)
        (go Soc.Fastpath.Interpretive))
    [ Soc.Run.Elide_on; Soc.Run.Elide_differential ]

(* Faulted runs must never consult a cache or skip an adjudication: results
   are mode-independent and the memo counters stay flat. *)
let test_soc_faulted_never_fast_pathed () =
  Soc.Fastpath.clear ();
  let bench = List.hd (Machsuite.Registry.all) in
  let faults = Fault.Plan.default ~seed:11 in
  (* Warm every cache first so a faulted run has hits available to (wrongly)
     take. *)
  let _ = Soc.Run.run ~tasks:4 Soc.Config.ccpu_caccel bench in
  let go mode =
    with_mode mode (fun () ->
        Soc.Run.run ~tasks:4 ~faults Soc.Config.ccpu_caccel bench)
  in
  Obs.Counters.reset ();
  let fast = go Soc.Fastpath.Fast in
  checki "no traces memoized under faults" 0
    (Obs.Counters.get Obs.Counters.traces_memoized);
  checki "no runs memoized under faults" 0
    (Obs.Counters.get Obs.Counters.runs_memoized);
  checki "no accesses fast-pathed under faults" 0
    (Obs.Counters.get Obs.Counters.accesses_fast_pathed);
  soc_result_eq "faulted" fast (go Soc.Fastpath.Interpretive);
  (* Repeating the same faulted run must stay deterministic, not memoized. *)
  soc_result_eq "faulted repeat" fast (go Soc.Fastpath.Fast)

(* Differential mode recomputes both legs and faults on divergence; passing
   is the assertion. *)
let test_soc_differential_mode () =
  Soc.Fastpath.clear ();
  let benches =
    List.filteri (fun i _ -> i mod 5 = 0) (Machsuite.Registry.all)
  in
  with_mode Soc.Fastpath.Differential (fun () ->
      List.iter
        (fun bench ->
          List.iter
            (fun engine ->
              let r =
                Soc.Run.run ~tasks:2 ~engine Soc.Config.ccpu_caccel bench
              in
              checkb "differential correct" true r.Soc.Run.correct;
              (* Second call re-compares against a memoized fast leg. *)
              let r2 =
                Soc.Run.run ~tasks:2 ~engine Soc.Config.ccpu_caccel bench
              in
              checkb "differential repeat" true (r = r2))
            [ Soc.Run.Legacy_replay; Soc.Run.Event_driven ])
        benches)

(* The speedup counters actually move: repeated fast runs memoize whole
   results, derived traces and fast-pathed accesses. *)
let test_soc_counters_move () =
  Soc.Fastpath.clear ();
  Obs.Counters.reset ();
  let bench = Machsuite.Registry.find "gemm_ncubed" in
  checkb "gemm proven in bounds" true (Soc.Fastpath.proven bench);
  let _ = Soc.Run.run ~tasks:2 Soc.Config.ccpu_caccel bench in
  checkb "fast-pathed accesses counted" true
    (Obs.Counters.get Obs.Counters.accesses_fast_pathed > 0);
  let _ = Soc.Run.run ~tasks:3 Soc.Config.ccpu_caccel bench in
  checkb "derived trace counted" true
    (Obs.Counters.get Obs.Counters.traces_memoized > 0);
  let _ = Soc.Run.run ~tasks:3 Soc.Config.ccpu_caccel bench in
  checkb "whole run memoized" true
    (Obs.Counters.get Obs.Counters.runs_memoized > 0)

(* A uniform run is a mixed run of N copies: with as many instances as
   tasks, [run] and [run_mixed] on N copies of one bench agree on every
   field but the label, on every accelerator preset, both engines, cold and
   warm caches. *)
let test_soc_run_is_mixed_of_copies () =
  let n = 3 in
  let check name (r : Soc.Run.result) (m : Soc.Run.result) =
    Alcotest.(check string) (name ^ ": mixed label") "mixed" m.Soc.Run.benchmark;
    checkb (name ^ ": run == run_mixed of copies") true
      ({ m with Soc.Run.benchmark = r.Soc.Run.benchmark } = r)
  in
  List.iter
    (fun bench ->
      List.iter
        (fun config ->
          List.iter
            (fun engine ->
              let run () =
                Soc.Run.run ~tasks:n ~instances:n ~engine config bench
              in
              let mixed () =
                Soc.Run.run_mixed ~instances:n ~engine config
                  (List.init n (fun _ -> bench))
              in
              let name =
                Printf.sprintf "%s/%s/%s" bench.Machsuite.Bench_def.name
                  (Soc.Config.label config)
                  (match engine with
                  | Soc.Run.Legacy_replay -> "replay"
                  | Soc.Run.Event_driven -> "event")
              in
              with_mode Soc.Fastpath.Interpretive (fun () ->
                  check (name ^ " interpretive") (run ()) (mixed ()));
              with_mode Soc.Fastpath.Fast (fun () ->
                  Soc.Fastpath.clear ();
                  let r = run () in
                  check (name ^ " fast, run first") r (mixed ());
                  Soc.Fastpath.clear ();
                  let m = mixed () in
                  check (name ^ " fast, mixed first") (run ()) m))
            [ Soc.Run.Legacy_replay; Soc.Run.Event_driven ])
        [ Soc.Config.cpu_accel; Soc.Config.ccpu_accel; Soc.Config.ccpu_caccel;
          Soc.Config.ccpu_caccel_coarse; Soc.Config.ccpu_caccel_cached ])
    (List.map Machsuite.Registry.find
       [ "aes"; "fft_transpose"; "spmv_crs"; "md_knn" ])

(* The whole-run memo must keep a singleton mixed run apart from a one-task
   uniform run: they differ in label, and by default in instance count and
   area.  Each fast result must equal its own interpretive result. *)
let test_soc_memo_keeps_run_and_mixed_apart () =
  let bench = Machsuite.Registry.find "aes" in
  let config = Soc.Config.ccpu_caccel in
  let cases =
    [ ("default instances",
       (fun () -> Soc.Run.run_mixed config [ bench ]),
       fun () -> Soc.Run.run ~tasks:1 config bench);
      ("one instance",
       (fun () -> Soc.Run.run_mixed ~instances:1 config [ bench ]),
       fun () -> Soc.Run.run ~tasks:1 ~instances:1 config bench);
      ("eight instances",
       (fun () -> Soc.Run.run_mixed ~instances:8 config [ bench ]),
       fun () -> Soc.Run.run ~tasks:1 ~instances:8 config bench) ]
  in
  List.iter
    (fun (name, mixed, run) ->
      let slow_m = with_mode Soc.Fastpath.Interpretive mixed in
      let slow_r = with_mode Soc.Fastpath.Interpretive run in
      Soc.Fastpath.clear ();
      let fast_m = with_mode Soc.Fastpath.Fast mixed in
      let fast_r = with_mode Soc.Fastpath.Fast run in
      soc_result_eq (name ^ ": run_mixed [b]") fast_m slow_m;
      soc_result_eq (name ^ ": run ~tasks:1 b") fast_r slow_r)
    cases

let suite =
  [
    Alcotest.test_case "soc: fast == interpretive (legacy, all kernels)" `Quick
      test_soc_fast_matches_legacy;
    Alcotest.test_case "soc: fast == interpretive (cpu-only)" `Quick
      test_soc_fast_matches_cpu;
    Alcotest.test_case "soc: fast == interpretive (event, mixed)" `Quick
      test_soc_fast_matches_event;
    Alcotest.test_case "soc: fast == interpretive (elision modes)" `Quick
      test_soc_fast_matches_elide;
    Alcotest.test_case "soc: faulted runs never fast-pathed" `Quick
      test_soc_faulted_never_fast_pathed;
    Alcotest.test_case "soc: differential mode passes" `Quick
      test_soc_differential_mode;
    Alcotest.test_case "soc: speedup counters move" `Quick
      test_soc_counters_move;
    Alcotest.test_case "soc: run == run_mixed of N copies" `Quick
      test_soc_run_is_mixed_of_copies;
    Alcotest.test_case "soc: memo keeps run and run_mixed apart" `Quick
      test_soc_memo_keeps_run_and_mixed_apart;
  ]
