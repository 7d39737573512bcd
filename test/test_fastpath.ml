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
  ]
