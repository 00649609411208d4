(* Tests for the telemetry library (metrics registry, structured tracing,
   Chrome-trace export) and its simulator instrumentation.

   The registry is process-global and other suites in this binary also feed
   it, so every counter assertion here works on deltas against uniquely
   named metrics, never on absolute values of shared ones. *)
open Psbox_engine
module Telemetry = Psbox_telemetry
module Tm = Telemetry.Metrics
module Tt = Telemetry.Tracing
module Fig3 = Psbox_experiments.Fig3
module Report = Psbox_experiments.Report
module Common = Psbox_experiments.Common

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))
let value name = Option.value ~default:0.0 (Tm.find name)

(* ---- registry ------------------------------------------------------ *)

let test_counter_gauge () =
  let c = Tm.counter "test.reg.count" in
  Tm.incr c;
  Tm.incr c;
  Tm.add c 3.0;
  check_float "counter" 5.0 (Tm.counter_value c);
  check_bool "same cell by name" true
    (Tm.counter "test.reg.count" == c);
  let g = Tm.gauge "test.reg.depth" in
  Tm.set g 7.0;
  Tm.set g 2.0;
  check_float "gauge tracks last" 2.0 (Tm.gauge_value g);
  let m = Tm.gauge "test.reg.depth_max" in
  Tm.set_max m 3.0;
  Tm.set_max m 9.0;
  Tm.set_max m 4.0;
  check_float "set_max keeps max" 9.0 (Tm.gauge_value m);
  Alcotest.check_raises "kind clash"
    (Invalid_argument "Telemetry.Metrics: \"test.reg.count\" is already a counter")
    (fun () -> ignore (Tm.gauge "test.reg.count"))

let test_snapshot_determinism () =
  ignore (Tm.counter "test.snap.b");
  ignore (Tm.counter "test.snap.a");
  let s1 = Tm.snapshot () in
  let s2 = Tm.snapshot () in
  check_bool "snapshot is reproducible" true (s1 = s2);
  (* metrics are sorted by name (bucket rows of one histogram stay in edge
     order, so only the counter/gauge rows are globally ordered) *)
  let names = List.map fst (Tm.values ()) in
  check_bool "values sorted by name" true (List.sort compare names = names);
  let index n =
    let rec go i = function
      | [] -> -1
      | (n', _) :: _ when n' = n -> i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 s1
  in
  check_bool "snapshot rows follow name order" true
    (index "test.snap.a" < index "test.snap.b");
  let d1 = Tm.dump_string () in
  let d2 = Tm.dump_string () in
  check_bool "dump is reproducible" true (d1 = d2);
  (* values () carries counters and gauges but never histogram rows *)
  ignore (Tm.histogram "test.snap.hist" ~edges:[| 1.0; 2.0 |]);
  check_bool "values skips histograms" true
    (List.for_all
       (fun (n, _) -> not (String.length n >= 14 && String.sub n 0 14 = "test.snap.hist"))
       (Tm.values ()))

let test_histogram_edges () =
  let h = Tm.histogram "test.hist.lat" ~edges:[| 1.0; 10.0; 100.0 |] in
  (* boundary values land in the bucket whose edge they equal (v <= edge) *)
  List.iter (Tm.observe h) [ 0.5; 1.0; 1.1; 10.0; 99.9; 100.0; 100.1; 5000.0 ];
  Alcotest.(check (array int))
    "per-bucket counts" [| 2; 2; 2; 2 |] (Tm.bucket_counts h);
  let rows = Tm.snapshot () in
  let row n = List.assoc n rows in
  Alcotest.(check string) "cumulative le=1" "2" (row "test.hist.lat{le=1}");
  Alcotest.(check string) "cumulative le=10" "4" (row "test.hist.lat{le=10}");
  Alcotest.(check string) "cumulative le=100" "6" (row "test.hist.lat{le=100}");
  Alcotest.(check string) "overflow" "8" (row "test.hist.lat{le=+inf}");
  (* percentile rows: rank interpolated linearly inside the holding
     bucket; ranks landing in the overflow bucket report the last finite
     edge *)
  Alcotest.(check string) "p50 interpolated" "10" (row "test.hist.lat.p50");
  Alcotest.(check string) "p95 from overflow" "100" (row "test.hist.lat.p95");
  Alcotest.(check string) "p99 from overflow" "100" (row "test.hist.lat.p99");
  (match Tm.quantile h 0.5 with
  | Some v -> Alcotest.(check (float 1e-9)) "quantile 0.5" 10.0 v
  | None -> Alcotest.fail "quantile on non-empty histogram");
  Alcotest.(check bool)
    "quantile of empty histogram" true
    (Tm.quantile (Tm.histogram "test.hist.empty" ~edges:[| 1.0 |]) 0.5 = None);
  Alcotest.check_raises "edges must increase"
    (Invalid_argument "Telemetry.Metrics.histogram: edges must increase")
    (fun () -> ignore (Tm.histogram "test.hist.bad" ~edges:[| 2.0; 1.0 |]))

let test_disabled_is_noop () =
  let c = Tm.counter "test.off.count" in
  Telemetry.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Telemetry.set_enabled true)
    (fun () ->
      Tm.incr c;
      Tm.add c 10.0;
      check_float "no update while disabled" 0.0 (Tm.counter_value c));
  Tm.incr c;
  check_float "updates resume" 1.0 (Tm.counter_value c)

(* ---- tracing ------------------------------------------------------- *)

let with_recording f =
  Tt.clear ();
  Tt.start ();
  Fun.protect ~finally:(fun () -> Tt.stop (); Tt.clear ()) f

let test_tracing_armed_only () =
  Tt.clear ();
  check_bool "not recording by default" false (Tt.recording ());
  Tt.span ~track:"t" ~lane:"l" ~name:"dropped" ~start:0 ~stop:1 ();
  check_int "nothing buffered before start" 0 (Tt.length ());
  with_recording (fun () ->
      Tt.span ~track:"t" ~lane:"l" ~name:"kept" ~start:0 ~stop:5 ();
      check_int "buffered once armed" 1 (Tt.length ()));
  check_int "clear drops the buffer" 0 (Tt.length ())

let test_tracing_cap () =
  with_recording (fun () ->
      Tt.set_limit 3;
      Fun.protect
        ~finally:(fun () -> Tt.set_limit 2_000_000)
        (fun () ->
          for i = 1 to 5 do
            Tt.instant ~track:"t" ~lane:"l" ~name:"e" (i * 10)
          done;
          check_int "capped" 3 (Tt.length ());
          check_int "drop count" 2 (Tt.dropped ())))

let test_chrome_roundtrip () =
  let events =
    with_recording (fun () ->
        Tt.span ~track:"kernel.cfs" ~lane:"core0" ~name:"app1"
          ~args:[ ("weight", 1.5) ] ~start:1_000 ~stop:4_500 ();
        Tt.instant ~track:"kernel.cfs" ~lane:"quota" ~name:"throttle app1" 5_000;
        Tt.sample ~track:"engine.sim" ~name:"sim.queue_depth" 6_000 42.0;
        Tt.events ())
  in
  check_int "three events recorded" 3 (List.length events);
  let text = Telemetry.Chrome_trace.to_string events in
  (match Telemetry.Chrome_trace.validate text with
  | Ok n -> check_int "validate counts data events" 3 n
  | Error e -> Alcotest.failf "exported trace invalid: %s" e);
  match Telemetry.Json.parse text with
  | Error e -> Alcotest.failf "exported trace does not parse: %s" e
  | Ok json -> (
      match Telemetry.Json.member "traceEvents" json with
      | Some (Telemetry.Json.Arr items) ->
          let field name j =
            match Telemetry.Json.member name j with
            | Some v -> v
            | None -> Alcotest.failf "event missing %s" name
          in
          let spans =
            List.filter
              (fun j -> field "ph" j = Telemetry.Json.Str "X")
              items
          in
          check_int "one complete event" 1 (List.length spans);
          let s = List.hd spans in
          check_bool "ts in microseconds" true
            (field "ts" s = Telemetry.Json.Num 1.0);
          check_bool "dur in microseconds" true
            (field "dur" s = Telemetry.Json.Num 3.5);
          check_bool "span args survive" true
            (match Telemetry.Json.member "args" s with
            | Some a -> Telemetry.Json.member "weight" a
                        = Some (Telemetry.Json.Num 1.5)
            | None -> false);
          (* process/thread metadata announces track and lane names *)
          let metas =
            List.filter
              (fun j -> field "ph" j = Telemetry.Json.Str "M")
              items
          in
          check_bool "track metadata present" true
            (List.exists
               (fun j ->
                 field "name" j = Telemetry.Json.Str "process_name"
                 && (match Telemetry.Json.member "args" j with
                    | Some a -> Telemetry.Json.member "name" a
                                = Some (Telemetry.Json.Str "kernel.cfs")
                    | None -> false))
               metas)
      | _ -> Alcotest.fail "no traceEvents array")

let test_export_deterministic () =
  let record () =
    with_recording (fun () ->
        Tt.span ~track:"a" ~lane:"x" ~name:"s1" ~start:10 ~stop:20 ();
        Tt.span ~track:"b" ~lane:"y" ~name:"s2" ~start:15 ~stop:25 ();
        Tt.events ())
  in
  let t1 = Telemetry.Chrome_trace.to_string (record ()) in
  let t2 = Telemetry.Chrome_trace.to_string (record ()) in
  Alcotest.(check string) "same events, same bytes" t1 t2

(* ---- simulator instrumentation ------------------------------------- *)

let test_sim_counters () =
  let fired0 = value "sim.events_fired" in
  let sched0 = value "sim.events_scheduled" in
  let canc0 = value "sim.events_cancelled" in
  let lbl0 = value "sim.events.test.tick" in
  let sim = Sim.create () in
  let hits = ref 0 in
  for i = 1 to 10 do
    ignore (Sim.schedule_at sim (Time.ms i) (fun () -> incr hits))
  done;
  Sim.arm (Sim.timer sim ~label:(Sim.label "test.tick") (Time.ms 50))
    (fun () -> incr hits);
  let doomed = Sim.schedule_at sim (Time.ms 60) (fun () -> incr hits) in
  Sim.cancel sim doomed;
  Sim.run_until sim (Time.ms 100);
  check_int "callbacks ran" 11 !hits;
  check_float "fired delta" 11.0 (value "sim.events_fired" -. fired0);
  check_float "scheduled delta" 12.0 (value "sim.events_scheduled" -. sched0);
  check_float "cancelled delta" 1.0 (value "sim.events_cancelled" -. canc0);
  check_float "labelled source counted" 1.0
    (value "sim.events.test.tick" -. lbl0)

(* The shipped experiments must not change when telemetry is off: the
   instrumentation only observes. Byte-compare a rendered fig3(b) report
   between an enabled and a disabled run. *)
let render_fig3b () =
  let b, series = Fig3.run_b () in
  let report =
    {
      Report.id = "fig3b";
      title = "telemetry identity probe";
      items =
        [
          (* no command-id column: Accel ids come from a process-global
             counter, so they differ between any two runs in one binary *)
          Report.table
            ~headers:[ "kind"; "start"; "finish" ]
            (List.map
               (fun (_, kind, s, f) ->
                 [
                   kind;
                   Common.fmt_ms ~dp:2 ~tight:true (s *. 1e3);
                   Common.fmt_ms ~dp:2 ~tight:true (f *. 1e3);
                 ])
               b.Fig3.commands);
          Report.chart ~label:"GPU power" series;
        ];
    }
  in
  Format.asprintf "%a" Report.render report

let test_experiment_identical_when_disabled () =
  let with_telemetry = render_fig3b () in
  Telemetry.set_enabled false;
  let without =
    Fun.protect
      ~finally:(fun () -> Telemetry.set_enabled true)
      render_fig3b
  in
  Alcotest.(check string) "byte-identical output" with_telemetry without

(* A simulator captures its domain's tracer state when it is made, and
   that state is never replaced: a trace started after the machine was
   built must still record the machine's scheduling spans. *)
let test_tracing_after_create () =
  let module System = Psbox_kernel.System in
  let module W = Psbox_workloads.Workload in
  let sys = System.create ~cores:2 () in
  let a = System.new_app sys ~name:"a" in
  ignore
    (W.spawn sys ~app:a ~name:"a" ~core:0
       (W.forever (fun () -> [ W.Compute (Time.ms 1); W.Sleep (Time.us 300) ]))
      : Psbox_kernel.Task.t);
  check_bool "not recording before start" false
    (Tt.recording_in (Sim.tracer (System.sim sys)));
  with_recording (fun () ->
      check_bool "the captured state follows start" true
        (Tt.recording_in (Sim.tracer (System.sim sys)));
      System.start sys;
      System.run_for sys (Time.ms 20);
      let cfs_spans =
        List.filter
          (fun (e : Tt.event) -> e.track = "kernel.cfs" && e.kind = Tt.Span)
          (Tt.events ())
      in
      check_bool "the machine's kernel.cfs spans are recorded" true
        (List.length cfs_spans > 0))

let suite =
  [
    Alcotest.test_case "registry: counters and gauges" `Quick test_counter_gauge;
    Alcotest.test_case "registry: snapshot determinism" `Quick
      test_snapshot_determinism;
    Alcotest.test_case "registry: histogram bucket edges" `Quick
      test_histogram_edges;
    Alcotest.test_case "registry: disabled is a no-op" `Quick
      test_disabled_is_noop;
    Alcotest.test_case "tracing: records only when armed" `Quick
      test_tracing_armed_only;
    Alcotest.test_case "tracing: buffer cap counts drops" `Quick
      test_tracing_cap;
    Alcotest.test_case "chrome: span/instant/sample round-trip" `Quick
      test_chrome_roundtrip;
    Alcotest.test_case "chrome: export is deterministic" `Quick
      test_export_deterministic;
    Alcotest.test_case "sim: event-loop counters are exact" `Quick
      test_sim_counters;
    Alcotest.test_case "experiments: byte-identical with telemetry off" `Quick
      test_experiment_identical_when_disabled;
    Alcotest.test_case "tracing: a machine made before start records" `Quick
      test_tracing_after_create;
  ]
