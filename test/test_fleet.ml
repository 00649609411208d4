(* Fleet subsystem: seed derivation, mergeable telemetry exports,
   domain isolation, and the byte-determinism contracts (jobs-invariance,
   1-device fleet == direct device run). *)

module Rng = Psbox_engine.Rng
module Tm = Psbox_telemetry.Metrics
module Fleet = Psbox_fleet.Fleet

let qcheck = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Rng.derive *)

let test_derive_deterministic () =
  Alcotest.(check int)
    "same (seed, i) -> same child"
    (Rng.derive ~seed:42 7) (Rng.derive ~seed:42 7);
  Alcotest.(check bool)
    "distinct indices -> distinct children" true
    (Rng.derive ~seed:42 0 <> Rng.derive ~seed:42 1);
  Alcotest.(check bool)
    "distinct seeds -> distinct children" true
    (Rng.derive ~seed:1 0 <> Rng.derive ~seed:2 0)

let test_derive_order_independent () =
  (* Deriving child i must not depend on whether other children were
     derived first — it is a pure function, not a stream. *)
  let alone = Rng.derive ~seed:9 5 in
  for i = 0 to 4 do ignore (Rng.derive ~seed:9 i : int) done;
  Alcotest.(check int) "derive 5 after deriving 0..4" alone
    (Rng.derive ~seed:9 5)

let test_derive_negative_rejected () =
  Alcotest.check_raises "negative index"
    (Invalid_argument "Rng.derive: index must be non-negative")
    (fun () -> ignore (Rng.derive ~seed:0 (-1) : int))

let prop_derive_no_nearby_collisions =
  QCheck.Test.make ~name:"derive: no collisions among first 64 children"
    ~count:50
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let seen = Hashtbl.create 64 in
      let ok = ref true in
      for i = 0 to 63 do
        let c = Rng.derive ~seed i in
        if Hashtbl.mem seen c then ok := false;
        Hashtbl.replace seen c ()
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Metrics export / merge *)

let fresh f = Tm.with_fresh_store f

let test_export_merge_counters () =
  let a =
    fresh (fun () ->
        Tm.add (Tm.counter "fleet.test.c") 3.0;
        Tm.export ())
  in
  let b =
    fresh (fun () ->
        Tm.add (Tm.counter "fleet.test.c") 4.0;
        Tm.add (Tm.counter "fleet.test.only_b") 1.0;
        Tm.export ())
  in
  let m = Tm.merge a b in
  let value name =
    match List.assoc name m with
    | Tm.Counter_v v -> v
    | _ -> Alcotest.fail (name ^ ": expected a counter")
  in
  Alcotest.(check (float 1e-9)) "counters sum" 7.0 (value "fleet.test.c");
  Alcotest.(check (float 1e-9)) "one-sided key kept" 1.0
    (value "fleet.test.only_b");
  let names = List.map fst m in
  Alcotest.(check (list string)) "merge output stays sorted"
    (List.sort compare names) names

let test_export_merge_gauges () =
  let a =
    fresh (fun () ->
        Tm.set (Tm.gauge "fleet.test.g") 2.5;
        Tm.export ())
  in
  let b =
    fresh (fun () ->
        Tm.set (Tm.gauge "fleet.test.g") 1.25;
        Tm.export ())
  in
  (match List.assoc "fleet.test.g" (Tm.merge a b) with
  | Tm.Gauge_v v -> Alcotest.(check (float 1e-9)) "gauges max" 2.5 v
  | _ -> Alcotest.fail "expected a gauge")

let test_export_merge_histograms () =
  let edges = [| 1.0; 10.0 |] in
  let observing xs =
    fresh (fun () ->
        let h = Tm.histogram "fleet.test.h" ~edges in
        List.iter (Tm.observe h) xs;
        Tm.export ())
  in
  let a = observing [ 0.5; 5.0 ] and b = observing [ 5.0; 50.0 ] in
  match List.assoc "fleet.test.h" (Tm.merge a b) with
  | Tm.Histogram_v { edges = e; counts; sum } ->
      Alcotest.(check (array (float 1e-9))) "edges preserved" edges e;
      Alcotest.(check (array int)) "buckets summed" [| 1; 2; 1 |] counts;
      Alcotest.(check (float 1e-9)) "sums added" 60.5 sum
  | _ -> Alcotest.fail "expected a histogram"

let test_merge_mismatched_edges_rejected () =
  (* The handle registry already rejects re-registering a name with
     different edges, so a mismatch can only arrive from an export built
     elsewhere (another process, a file). Construct the exports directly. *)
  let mk e =
    [ ("fleet.test.bad",
       Tm.Histogram_v { edges = [| e |]; counts = [| 1; 0 |]; sum = 1.0 }) ]
  in
  let a = mk 1.0 and b = mk 2.0 in
  Alcotest.check_raises "mismatched edges"
    (Invalid_argument
       "Telemetry.Metrics.merge: \"fleet.test.bad\" has mismatched \
        histogram edges")
    (fun () -> ignore (Tm.merge a b : Tm.export))

let test_merge_mismatched_kinds_rejected () =
  let a = [ ("fleet.test.kind", Tm.Counter_v 1.0) ]
  and b = [ ("fleet.test.kind", Tm.Gauge_v 1.0) ] in
  Alcotest.check_raises "mismatched kinds"
    (Invalid_argument
       "Telemetry.Metrics.merge: \"fleet.test.kind\" has mismatched kinds")
    (fun () -> ignore (Tm.merge a b : Tm.export))

let test_fresh_store_isolates () =
  (* Work done under with_fresh_store must not leak into the enclosing
     store, and the enclosing store's values must be restored intact. *)
  let c = Tm.counter "fleet.test.outer" in
  Tm.add c 2.0;
  let inner =
    fresh (fun () ->
        Alcotest.(check (option (float 1e-9)))
          "outer metric invisible inside" None (Tm.find "fleet.test.outer");
        Tm.add (Tm.counter "fleet.test.inner") 5.0;
        Tm.export ())
  in
  Alcotest.(check (float 1e-9)) "outer value survives" 2.0
    (Tm.counter_value c);
  Alcotest.(check (option (float 1e-9)))
    "inner metric did not leak" None (Tm.find "fleet.test.inner");
  Alcotest.(check bool) "inner export captured it" true
    (List.mem_assoc "fleet.test.inner" inner)

(* Satellite 2's required test: two concurrent domains bumping the
   same-named counter each see only their own increments. *)
let test_two_domains_do_not_interleave () =
  let barrier = Atomic.make 0 in
  let device n () =
    Tm.with_fresh_store (fun () ->
        let c = Tm.counter "fleet.test.shared_name" in
        Atomic.incr barrier;
        (* Wait until both domains exist and have registered the counter,
           so the increments below genuinely overlap in time. *)
        while Atomic.get barrier < 2 do Domain.cpu_relax () done;
        for _ = 1 to n do Tm.incr c done;
        Tm.counter_value c)
  in
  let d1 = Domain.spawn (device 1000) and d2 = Domain.spawn (device 777) in
  let v1 = Domain.join d1 and v2 = Domain.join d2 in
  Alcotest.(check (float 1e-9)) "domain 1 sees only its own" 1000.0 v1;
  Alcotest.(check (float 1e-9)) "domain 2 sees only its own" 777.0 v2

(* ------------------------------------------------------------------ *)
(* Each simulator carries the store it was created in *)

module System = Psbox_kernel.System
module Time = Psbox_engine.Time
module W = Psbox_workloads.Workload

let check_export msg want got =
  Alcotest.(check (list (pair string string)))
    msg (Tm.export_rows want) (Tm.export_rows got);
  Alcotest.(check bool) (msg ^ ", bit for bit") true (want = got)

(* Devices run one after another on a domain: the second device's counts
   must land in its own store, exactly as when it runs alone on a fresh
   domain. *)
let test_reused_simulator_keeps_its_store () =
  let run idx =
    Fleet.run_device ~health:true ~scenario:"budget" ~fleet_seed:42 idx
  in
  ignore (run 0 : Fleet.device);
  let after_0 = run 1 in
  let alone = Domain.join (Domain.spawn (fun () -> run 1)) in
  check_export "device 1 after device 0 = device 1 alone"
    alone.Fleet.d_metrics after_0.Fleet.d_metrics

(* Two apps on a 2-core machine with the joule audit and a budget cap:
   Smp, the audit, the splitters, DVFS and the budget loop all count. *)
let run_capped_machine () =
  let sys = System.create ~cores:2 () in
  ignore (Psbox_audit.Audit.attach sys : Psbox_audit.Audit.t);
  let spin app core ms =
    ignore
      (W.spawn sys ~app ~name:"spin" ~core
         (W.forever (fun () ->
              [
                W.Compute (Time.ms ms);
                W.Sleep (Time.us 300);
                W.Count ("units", 1.0);
              ]))
        : Psbox_kernel.Task.t)
  in
  let a = System.new_app sys ~name:"a" and b = System.new_app sys ~name:"b" in
  spin a 0 1;
  spin b 1 2;
  let ctl = Psbox_budget.Budget.create sys () in
  Psbox_budget.Budget.set_cap ctl ~app:a.System.app_id ~watts:0.4;
  System.start sys;
  System.run_for sys (Time.ms 500);
  Psbox_budget.Budget.stop ctl;
  System.shutdown sys

let test_fresh_store_machine_leaves_outer () =
  let before = Tm.export () in
  Tm.with_fresh_store (fun () ->
      run_capped_machine ();
      Alcotest.(check bool)
        "the machine counted in the fresh store" true
        (Option.value ~default:0.0 (Tm.find "smp.ctx_switches") > 0.0));
  check_export "outer store unchanged" before (Tm.export ())

let test_disabled_run_counts_nothing () =
  Tm.with_fresh_store (fun () ->
      (* a first run materializes every family the machine touches *)
      run_capped_machine ();
      let before = Tm.export () in
      Psbox_telemetry.set_enabled false;
      Fun.protect
        ~finally:(fun () -> Psbox_telemetry.set_enabled true)
        run_capped_machine;
      check_export "no counter moved while disabled" before (Tm.export ()))

(* ------------------------------------------------------------------ *)
(* Fleet byte-determinism *)

let device_bytes d = Format.asprintf "%a" Fleet.pp_device d

let fleet_bytes ?jobs ~scenario ~devices ~seed () =
  Fleet.json_string (Fleet.run ?jobs ~scenario ~devices ~seed ())

let test_params_pure () =
  let p = Fleet.params_of ~fleet_seed:42 3 in
  let p' = Fleet.params_of ~fleet_seed:42 3 in
  Alcotest.(check bool) "params_of is pure" true (p = p');
  Alcotest.(check bool) "cores in range" true
    (p.Fleet.p_cores = 1 || p.Fleet.p_cores = 2);
  Alcotest.(check bool) "idle scale in range" true
    (p.Fleet.p_idle_scale >= 0.85 && p.Fleet.p_idle_scale <= 1.15)

let test_unknown_scenario_rejected () =
  Alcotest.(check bool) "raises on unknown scenario" true
    (try
       ignore (Fleet.run_device ~scenario:"nope" ~fleet_seed:1 0);
       false
     with Invalid_argument _ -> true)

(* Satellite 3: a 1-device fleet byte-equals the corresponding
   single-System run — the pool and reduction add nothing. *)
let prop_one_device_fleet_equals_direct =
  QCheck.Test.make ~name:"1-device fleet == direct run_device" ~count:4
    QCheck.(int_bound 10_000)
    (fun seed ->
      let direct = Fleet.run_device ~scenario:"budget" ~fleet_seed:seed 0 in
      let via_fleet =
        Fleet.run_devices ~scenario:"budget" ~devices:1 ~seed ()
      in
      Array.length via_fleet = 1
      && String.equal (device_bytes direct) (device_bytes via_fleet.(0)))

(* Satellite 3: jobs 1 and jobs 4 produce byte-identical reports. *)
let prop_jobs_invariant =
  QCheck.Test.make ~name:"fleet JSON: jobs 1 == jobs 4" ~count:3
    QCheck.(int_bound 10_000)
    (fun seed ->
      let seq = fleet_bytes ~jobs:1 ~scenario:"budget" ~devices:5 ~seed ()
      and par = fleet_bytes ~jobs:4 ~scenario:"budget" ~devices:5 ~seed () in
      String.equal seq par)

let test_repeat_runs_byte_equal () =
  let a = fleet_bytes ~jobs:1 ~scenario:"steady" ~devices:3 ~seed:7 ()
  and b = fleet_bytes ~jobs:1 ~scenario:"steady" ~devices:3 ~seed:7 () in
  Alcotest.(check string) "same (scenario, seed, devices) -> same bytes" a b

let test_device_runs_in_any_order () =
  (* Re-simulating one device in isolation reproduces its slice of a
     larger fleet — devices share no state. *)
  let all = Fleet.run_devices ~scenario:"budget" ~devices:4 ~seed:11 () in
  let alone = Fleet.run_device ~scenario:"budget" ~fleet_seed:11 2 in
  Alcotest.(check string) "device 2 alone == device 2 of 4"
    (device_bytes all.(2)) (device_bytes alone)

let test_summary_shape () =
  let s = Fleet.run ~scenario:"mixed" ~devices:4 ~seed:3 () in
  Alcotest.(check int) "device count" 4 s.Fleet.s_devices;
  Alcotest.(check bool) "violation rate in [0,1]" true
    (s.Fleet.s_violation_rate >= 0.0 && s.Fleet.s_violation_rate <= 1.0);
  let share = List.fold_left (fun a (_, f) -> a +. f) 0.0 s.Fleet.s_cause_share in
  Alcotest.(check (float 1e-6)) "cause shares sum to 1" 1.0 share;
  List.iter
    (fun (_, d) ->
      Alcotest.(check bool) "dist ordered" true
        (d.Fleet.min <= d.Fleet.p50
        && d.Fleet.p50 <= d.Fleet.p95
        && d.Fleet.p95 <= d.Fleet.p99
        && d.Fleet.p99 <= d.Fleet.max))
    s.Fleet.s_energy

let suite =
  [
    Alcotest.test_case "derive: deterministic" `Quick test_derive_deterministic;
    Alcotest.test_case "derive: order-independent" `Quick
      test_derive_order_independent;
    Alcotest.test_case "derive: negative index rejected" `Quick
      test_derive_negative_rejected;
    qcheck prop_derive_no_nearby_collisions;
    Alcotest.test_case "merge: counters sum" `Quick test_export_merge_counters;
    Alcotest.test_case "merge: gauges max" `Quick test_export_merge_gauges;
    Alcotest.test_case "merge: histograms bucket-merge" `Quick
      test_export_merge_histograms;
    Alcotest.test_case "merge: mismatched edges rejected" `Quick
      test_merge_mismatched_edges_rejected;
    Alcotest.test_case "merge: mismatched kinds rejected" `Quick
      test_merge_mismatched_kinds_rejected;
    Alcotest.test_case "with_fresh_store isolates" `Quick
      test_fresh_store_isolates;
    Alcotest.test_case "two domains don't interleave metrics" `Quick
      test_two_domains_do_not_interleave;
    Alcotest.test_case "params_of is pure" `Quick test_params_pure;
    Alcotest.test_case "unknown scenario rejected" `Quick
      test_unknown_scenario_rejected;
    qcheck prop_one_device_fleet_equals_direct;
    qcheck prop_jobs_invariant;
    Alcotest.test_case "repeat runs byte-equal" `Quick
      test_repeat_runs_byte_equal;
    Alcotest.test_case "device isolation across fleet sizes" `Quick
      test_device_runs_in_any_order;
    Alcotest.test_case "summary shape" `Quick test_summary_shape;
    Alcotest.test_case "a reused simulator keeps its device's store" `Quick
      test_reused_simulator_keeps_its_store;
    Alcotest.test_case "a machine in a fresh store leaves the outer one"
      `Quick test_fresh_store_machine_leaves_outer;
    Alcotest.test_case "a disabled run changes no counter" `Quick
      test_disabled_run_counts_nothing;
  ]
