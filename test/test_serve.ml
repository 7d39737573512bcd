(* lib/serve: the multi-tenant service mode.

   Covers the subsystem's contract: the seeded workload is deterministic,
   admission invariants hold over a full run (in-flight bounds, bookkeeping
   conservation), tenant compartments are isolated in the checker table and
   torn down with nothing dangling (the 1000-tenant churn regression), the
   report never raises on zero-request tenants, and the report is
   byte-identical across --jobs values. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* Small, fast parameter sets: the mix is restricted to the two cheapest
   kernels so profiling (cached process-wide after the first test) stays a
   fraction of a second. *)
let small_mix = [ ("aes", 2); ("kmp", 1) ]

let params ?(tenants = 30) ?(requests = 300) ?(seed = 11) ?(churn = 20)
    ?(cc_entries = 256) () =
  let base = Serve.Loop.default_params ~seed ~tenants ~requests () in
  {
    base with
    Serve.Loop.sv_cc_entries = cc_entries;
    sv_check_invariants = true;
    sv_workload =
      {
        base.Serve.Loop.sv_workload with
        Serve.Workload.churn_pct = churn;
        mix = small_mix;
      };
  }

(* -- workload ------------------------------------------------------- *)

let wl_params seed =
  {
    Serve.Workload.tenants = 40;
    requests = 500;
    seed;
    mean_gap = 1000;
    ramp = 20_000;
    churn_pct = 30;
    mix = small_mix;
    scales = Serve.Workload.default_scales;
  }

let test_workload_deterministic () =
  let a = Serve.Workload.generate (wl_params 7) in
  let b = Serve.Workload.generate (wl_params 7) in
  checkb "same seed, same schedule" true (a = b);
  let c = Serve.Workload.generate (wl_params 8) in
  checkb "different seed, different schedule" false (a = c)

let test_workload_structure () =
  let p = wl_params 7 in
  let evs = Serve.Workload.generate p in
  let sorted =
    List.for_all2
      (fun a b ->
        a.Serve.Workload.at < b.Serve.Workload.at
        || (a.at = b.at
           && Serve.Workload.ev_rank a.ev <= Serve.Workload.ev_rank b.ev))
      (List.filteri (fun i _ -> i < List.length evs - 1) evs)
      (List.tl evs)
  in
  checkb "sorted by (cycle, rank)" true sorted;
  let count f = List.length (List.filter f evs) in
  checki "one arrival per tenant" p.Serve.Workload.tenants
    (count (fun e ->
         match e.Serve.Workload.ev with
         | Serve.Workload.Tenant_arrive _ -> true
         | _ -> false));
  checki "all requests present" p.Serve.Workload.requests
    (count (fun e ->
         match e.Serve.Workload.ev with
         | Serve.Workload.Request _ -> true
         | _ -> false));
  List.iter
    (fun { Serve.Workload.ev; _ } ->
      match ev with
      | Serve.Workload.Request { tenant; scale; bench; _ } ->
          checkb "tenant in range" true
            (tenant >= 0 && tenant < p.Serve.Workload.tenants);
          checkb "scale from the scale set" true
            (List.mem_assoc scale p.Serve.Workload.scales);
          checkb "bench from the mix" true (List.mem_assoc bench small_mix)
      | _ -> ())
    evs

(* -- admission ------------------------------------------------------ *)

let test_admission_decide () =
  let policy =
    { Serve.Admission.max_inflight = 2; watermark_pct = 90; spill_depth = 4 }
  in
  let reg = Serve.Tenant.make_registry ~tenants:1 ~instances:8 in
  let tn = reg.(0) in
  let decide ~live =
    Serve.Admission.decide policy ~table_live:live ~capacity:100 tn
  in
  checkb "pending tenant is Gone" true (decide ~live:0 = Error Serve.Admission.Gone);
  tn.Serve.Tenant.state <- Serve.Tenant.Active;
  checkb "active tenant admitted" true (decide ~live:0 = Ok ());
  tn.Serve.Tenant.inflight <- 2;
  checkb "at the in-flight bound" true
    (decide ~live:0 = Error Serve.Admission.Inflight);
  tn.Serve.Tenant.inflight <- 0;
  checkb "at the watermark" true
    (decide ~live:90 = Error Serve.Admission.Table);
  checkb "below the watermark" true (decide ~live:89 = Ok ());
  tn.Serve.Tenant.state <- Serve.Tenant.Departed;
  checkb "departed tenant is Gone" true
    (decide ~live:0 = Error Serve.Admission.Gone)

(* -- parameter validation ------------------------------------------- *)

let test_validate () =
  let ok p = Serve.Loop.validate p = Ok () in
  let p = params () in
  checkb "defaults valid" true (ok p);
  checkb "derived gap allowed" true
    (ok { p with Serve.Loop.sv_workload =
                   { p.Serve.Loop.sv_workload with Serve.Workload.mean_gap = 0 } });
  checkb "zero tenants" false (ok (params ~tenants:0 ()));
  checkb "zero table entries" false (ok (params ~cc_entries:0 ()));
  checkb "churn over 100" false (ok (params ~churn:101 ()));
  checkb "no CapChecker" false
    (ok { p with Serve.Loop.sv_config = Soc.Config.ccpu_accel });
  checkb "run rejects what validate rejects" true
    (try
       ignore (Serve.Loop.run (params ~cc_entries:0 ()));
       false
     with Invalid_argument _ -> true)

(* -- full-run invariants -------------------------------------------- *)

(* The loop itself asserts isolation and occupancy invariants as it runs
   (sv_check_invariants); this test layers the bookkeeping conservation laws
   over the report. *)
let test_run_invariants () =
  let p = params () in
  let r = Serve.Loop.run p in
  let tt = r.Serve.Report.rp_totals in
  checki "every request accounted" tt.Serve.Report.t_requests
    (tt.Serve.Report.t_admitted + tt.Serve.Report.t_rejected_gone
    + tt.Serve.Report.t_rejected_inflight + tt.Serve.Report.t_rejected_table);
  checki "every admission resolves" tt.Serve.Report.t_admitted
    (tt.Serve.Report.t_completed + tt.Serve.Report.t_cancelled);
  checkb "some requests completed" true (tt.Serve.Report.t_completed > 0);
  checki "per-tenant rows cover every tenant" p.Serve.Loop.sv_workload.Serve.Workload.tenants
    (List.length r.Serve.Report.rp_rows);
  let sum f = List.fold_left (fun acc row -> acc + f row) 0 r.Serve.Report.rp_rows in
  checki "rows sum to admitted" tt.Serve.Report.t_admitted
    (sum (fun row -> row.Serve.Report.tr_admitted));
  checki "rows sum to completed" tt.Serve.Report.t_completed
    (sum (fun row -> row.Serve.Report.tr_completed));
  checki "rows sum to cancelled" tt.Serve.Report.t_cancelled
    (sum (fun row -> row.Serve.Report.tr_cancelled));
  checki "table drained at end" 0 r.Serve.Report.rp_table.Capchecker.Table.st_live;
  checkb "table saw real pressure" true
    (r.Serve.Report.rp_table.Capchecker.Table.st_installs > 0)

let test_inflight_bound () =
  let p = params ~tenants:6 ~requests:400 () in
  (* A tight bound plus invariant checking inside the loop: the loop itself
     fails if a tenant ever exceeds max_inflight. *)
  let p =
    { p with Serve.Loop.sv_policy = { p.Serve.Loop.sv_policy with Serve.Admission.max_inflight = 2 } }
  in
  let r = Serve.Loop.run p in
  checkb "bound generated rejections" true
    (r.Serve.Report.rp_totals.Serve.Report.t_rejected_inflight > 0)

(* -- tenant teardown / churn regression ------------------------------ *)

(* Churn 1000 tenants through a 256-entry table: departures roll back driver
   allocations and revoke compartment roots in one step, so the live-entry
   count must return to zero (asserted inside the loop at every teardown and
   again, via the report, here). *)
let test_churn_1000_tenants_live_zero () =
  let p = params ~tenants:1000 ~requests:2000 ~seed:5 ~churn:60 () in
  let r = Serve.Loop.run p in
  let tt = r.Serve.Report.rp_totals in
  checki "live entries back to zero" 0
    r.Serve.Report.rp_table.Capchecker.Table.st_live;
  checkb "churn happened" true (tt.Serve.Report.t_departed > 400);
  checkb "compartments thrashed" true (tt.Serve.Report.t_root_evictions > 0);
  checki "install/evict balance" r.Serve.Report.rp_table.Capchecker.Table.st_installs
    r.Serve.Report.rp_table.Capchecker.Table.st_evictions

(* Zero-request tenants produce a documented all-zero latency row, not an
   Invalid_argument from an empty percentile sample. *)
let test_zero_request_row () =
  let p = params ~tenants:300 ~requests:20 () in
  let r = Serve.Loop.run p in
  let zero_rows =
    List.filter
      (fun row -> row.Serve.Report.tr_completed = 0)
      r.Serve.Report.rp_rows
  in
  checkb "plenty of idle tenants" true (List.length zero_rows > 200);
  List.iter
    (fun row ->
      checki "idle p50 is 0" 0 row.Serve.Report.tr_p50;
      checki "idle p99 is 0" 0 row.Serve.Report.tr_p99;
      checki "idle max is 0" 0 row.Serve.Report.tr_max)
    zero_rows

(* -- determinism ----------------------------------------------------- *)

let test_repeat_seed_byte_identical () =
  let a = Serve.Report.to_string (Serve.Loop.run (params ())) in
  let b = Serve.Report.to_string (Serve.Loop.run (params ())) in
  checkb "repeat run byte-identical" true (String.equal a b);
  let c = Serve.Report.to_string (Serve.Loop.run (params ~seed:12 ())) in
  checkb "different seed differs" false (String.equal a c)

let test_jobs_parity () =
  let serial = Serve.Report.to_string (Serve.Loop.run (params ())) in
  List.iter
    (fun jobs ->
      let p = { (params ()) with Serve.Loop.sv_jobs = jobs } in
      let par = Serve.Report.to_string (Serve.Loop.run p) in
      checkb
        (Printf.sprintf "jobs:%d byte-identical to serial" jobs)
        true (String.equal serial par))
    [ 2; 4 ]

(* -- satellite units -------------------------------------------------- *)

let test_percentile_int () =
  let xs = [ 5; 1; 9; 3; 7 ] in
  checki "p50 nearest-rank" 5 (Ccsim.Stats.percentile_int 0.5 xs);
  checki "p99 is the max here" 9 (Ccsim.Stats.percentile_int 0.99 xs);
  checki "p0 clamps to min" 1 (Ccsim.Stats.percentile_int 0.0 xs);
  (match Ccsim.Stats.percentile_int_opt 0.5 [] with
  | None -> ()
  | Some _ -> Alcotest.fail "empty sample must be None");
  checkb "raising variant raises" true
    (try
       ignore (Ccsim.Stats.percentile_int 0.5 []);
       false
     with Invalid_argument _ -> true)

let test_table_stats_counters () =
  let t = Capchecker.Table.create ~entries:2 in
  let cap = Cheri.Cap.root in
  let untagged = Cheri.Cap.clear_tag cap in
  ignore (Capchecker.Table.install t ~task:0 ~obj:0 cap);
  ignore (Capchecker.Table.install t ~task:0 ~obj:1 cap);
  let s = Capchecker.Table.stats t in
  checki "installs" 2 s.Capchecker.Table.st_installs;
  checki "live" 2 s.Capchecker.Table.st_live;
  checki "peak" 2 s.Capchecker.Table.st_peak;
  (* replace does not change occupancy *)
  ignore (Capchecker.Table.install t ~task:0 ~obj:1 cap);
  let s = Capchecker.Table.stats t in
  checki "replace counts as install" 3 s.Capchecker.Table.st_installs;
  checki "replace keeps live" 2 s.Capchecker.Table.st_live;
  (* full table -> conflict; untagged -> rejected *)
  ignore (Capchecker.Table.install t ~task:1 ~obj:0 cap);
  ignore (Capchecker.Table.install t ~task:1 ~obj:1 untagged);
  let s = Capchecker.Table.stats t in
  checki "conflict counted" 1 s.Capchecker.Table.st_conflicts;
  checki "untagged rejection counted" 1 s.Capchecker.Table.st_rejected;
  (* evictions, and the O(1) gauge agrees with a slot scan *)
  ignore (Capchecker.Table.evict t ~task:0 ~obj:0);
  ignore (Capchecker.Table.evict_task t ~task:0);
  let s = Capchecker.Table.stats t in
  checki "evictions" 2 s.Capchecker.Table.st_evictions;
  checki "live drained" 0 s.Capchecker.Table.st_live;
  let scan = ref 0 in
  Capchecker.Table.iter_live t (fun _ -> incr scan);
  checki "gauge matches slot scan" !scan (Capchecker.Table.live_count t);
  checki "peak survives drain" 2 s.Capchecker.Table.st_peak

let test_observe_table_metrics () =
  let checker = Capchecker.Checker.create ~entries:4 Capchecker.Checker.Fine in
  ignore (Capchecker.Checker.install checker ~task:1 ~obj:0 Cheri.Cap.root);
  ignore (Capchecker.Checker.install checker ~task:1 ~obj:1 Cheri.Cap.root);
  ignore (Capchecker.Checker.evict checker ~task:1 ~obj:0);
  let m = Obs.Metrics.create () in
  Capchecker.Checker.observe_table checker ~into:m;
  checki "installs surfaced" 2 (Obs.Metrics.get m "checker.table_installs");
  checki "evictions surfaced" 1 (Obs.Metrics.get m "checker.table_evictions");
  checki "live surfaced" 1 (Obs.Metrics.get m "checker.table_live");
  checki "peak surfaced" 2 (Obs.Metrics.get m "checker.table_peak")

let suite =
  [
    Alcotest.test_case "workload: same seed same schedule" `Quick
      test_workload_deterministic;
    Alcotest.test_case "workload: structure and ranges" `Quick
      test_workload_structure;
    Alcotest.test_case "admission: decision table" `Quick test_admission_decide;
    Alcotest.test_case "run: bookkeeping conservation" `Quick
      test_run_invariants;
    Alcotest.test_case "run: in-flight bound enforced" `Quick
      test_inflight_bound;
    Alcotest.test_case "churn: 1000 tenants, live back to zero" `Quick
      test_churn_1000_tenants_live_zero;
    Alcotest.test_case "report: zero-request tenants" `Quick
      test_zero_request_row;
    Alcotest.test_case "determinism: repeat seed" `Quick
      test_repeat_seed_byte_identical;
    Alcotest.test_case "determinism: jobs parity" `Quick test_jobs_parity;
    Alcotest.test_case "stats: integer percentiles" `Quick test_percentile_int;
    Alcotest.test_case "table: pressure counters" `Quick
      test_table_stats_counters;
    Alcotest.test_case "checker: observe_table" `Quick
      test_observe_table_metrics;
    Alcotest.test_case "run: parameter validation" `Quick test_validate;
  ]
