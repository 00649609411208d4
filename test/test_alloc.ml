(* Allocation guards for three hot paths. A rail transition settles the
   kernel energy ledger, the joule audit and the live usage splitter; none
   of them may allocate per transition beyond the fixed margins below. The
   event loop must run Smp's replan pattern without allocating per tick.
   And a context switch, which publishes a share change that the audit,
   the budget's splitter and the quota planner all settle, must stay under
   a ceiling of minor words. Minor words are deterministic, so the margins
   are exact counts, not timings. *)
open Psbox_engine
module System = Psbox_kernel.System
module Smp = Psbox_kernel.Smp
module Temporal_sched = Psbox_kernel.Temporal_sched
module Audit = Psbox_audit.Audit
module Split = Psbox_accounting.Split
module Power_rail = Psbox_hw.Power_rail
module Budget = Psbox_budget.Budget
module W = Psbox_workloads.Workload
module Tm = Psbox_telemetry.Metrics

let warmup = 1_000
let transitions = 20_000

(* Minor words per transition over [transitions] draws alternating between
   1 W and 2 W, 1 us apart, after [warmup] unmeasured ones. *)
let words_per_transition sim rail =
  let step i =
    Sim.run_until sim (Sim.now sim + Time.us 1);
    Power_rail.set_power rail (if i land 1 = 0 then 1.0 else 2.0)
  in
  for i = 1 to warmup do
    step i
  done;
  let w0 = Gc.minor_words () in
  for i = 1 to transitions do
    step i
  done;
  (Gc.minor_words () -. w0) /. float_of_int transitions

let cpu_rail sys = Psbox_hw.Cpu.rail (System.cpu sys)

let test_transition_words () =
  let bare =
    let sim = Sim.create () in
    words_per_transition sim
      (Power_rail.create ~retention:(Time.sec 120) sim ~name:"bare" ~idle_w:0.3)
  in
  (* the CPU rail of a machine carries the kernel ledger and nothing else *)
  let ledger =
    let sys = System.create ~cores:2 () in
    Alcotest.(check bool) "no audit attached" true (Audit.lookup sys = None);
    words_per_transition (System.sim sys) (cpu_rail sys)
  in
  (* the same rail under the audit and a live splitter, two apps sharing
     it on both feeds *)
  let full =
    let sys = System.create ~cores:2 () in
    ignore (Audit.attach sys : Audit.t);
    let now = System.now sys in
    let lv = Split.live (cpu_rail sys) ~from:now in
    List.iter
      (fun app ->
        Split.live_set_share lv ~at:now ~app 1.0;
        Bus.publish
          (Smp.share_bus (System.smp sys))
          { Temporal_sched.at = now; app; share = 1 })
      [ 1; 2 ];
    let w = words_per_transition (System.sim sys) (cpu_rail sys) in
    Split.live_detach lv;
    w
  in
  let ledger_margin = ledger -. bare and full_margin = full -. bare in
  Printf.printf
    "words/transition: bare %.2f, +ledger %.2f, +ledger+audit+splitter %.2f\n"
    bare ledger_margin full_margin;
  Alcotest.(check (float 0.0))
    "kernel ledger adds no words" 0.0 (Float.round ledger_margin);
  Alcotest.(check bool)
    (Printf.sprintf "ledger, audit and splitter add %.2f <= 28 words"
       full_margin)
    true (full_margin <= 28.0)

(* Smp's replan pattern: a tick every 7 us cancels the core's 10 ms
   timeout and arms it again. The closures are built once, as Smp builds
   its per-core handlers, so only the queue itself can allocate. A
   comparator closure or a boxed key per push would cost two or more words
   per tick. *)
let replan_warmup = 10_000
let replan_ticks = 200_000

let test_replan_words () =
  let sim = Sim.create () in
  let period = Time.us 7 and timeout = Time.ms 10 in
  let armed = ref Sim.none in
  let expire () = () in
  let rec tick () =
    Sim.cancel sim !armed;
    armed := Sim.schedule_after sim timeout expire;
    ignore (Sim.schedule_after sim period tick : Sim.handle)
  in
  ignore (Sim.schedule_after sim period tick : Sim.handle);
  let ticks n = Sim.run_until sim (Sim.now sim + (n * period)) in
  ticks replan_warmup;
  let w0 = Gc.minor_words () and t0 = Sys.time () in
  ticks replan_ticks;
  let t1 = Sys.time () and w1 = Gc.minor_words () in
  let n = float_of_int replan_ticks in
  let words = (w1 -. w0) /. n in
  Printf.printf "replan tick: %.3f words, %.1f ns (CPU time, not gated)\n"
    words ((t1 -. t0) *. 1e9 /. n);
  Alcotest.(check bool)
    (Printf.sprintf "a replan tick allocates %.3f <= 0.25 words" words)
    true (words <= 0.25)

(* The switch path under every observer: a 2-core machine with the audit
   attached and three apps, a (1 ms bursts) and c (3 ms) on core 0 and b
   (2 ms) on core 1, each sleeping 300 us between bursts, with a 0.4 W
   budget cap on a. Every switch publishes a share change that the audit,
   the budget's CPU splitter and a's quota planner settle. The words per
   switch are the whole machine's: the workload scripts, CFS and the
   events count too. The ceiling is this scenario's reading rounded up to
   half a word; a change that lowers the reading lowers the ceiling. *)
let switch_words_ceiling = 29.0

let test_switch_words () =
  Tm.with_fresh_store (fun () ->
      let sys = System.create ~cores:2 () in
      ignore (Audit.attach sys : Audit.t);
      let app name ~core ~burst =
        let a = System.new_app sys ~name in
        ignore
          (W.spawn sys ~app:a ~name ~core
             (W.forever (fun () -> [ W.Compute burst; W.Sleep (Time.us 300) ]))
            : Psbox_kernel.Task.t);
        a
      in
      let a = app "a" ~core:0 ~burst:(Time.ms 1) in
      ignore (app "b" ~core:1 ~burst:(Time.ms 2) : System.app);
      ignore (app "c" ~core:0 ~burst:(Time.ms 3) : System.app);
      let ctl = Budget.create sys () in
      Budget.set_cap ctl ~app:a.System.app_id ~watts:0.4;
      System.start sys;
      System.run_for sys (Time.sec 2);
      let switches () =
        Option.value ~default:0.0 (Tm.find "smp.ctx_switches")
      in
      let s0 = switches () in
      let w0 = Gc.minor_words () and t0 = Sys.time () in
      System.run_for sys (Time.sec 60);
      let t1 = Sys.time () and w1 = Gc.minor_words () in
      let n = switches () -. s0 in
      let words = (w1 -. w0) /. n in
      Printf.printf
        "context switch: %.0f switches, %.2f words, %.0f ns (CPU time, not \
         gated)\n"
        n words ((t1 -. t0) *. 1e9 /. n);
      Budget.stop ctl;
      Alcotest.(check bool)
        (Printf.sprintf "a context switch allocates %.2f <= %.1f words" words
           switch_words_ceiling)
        true
        (words <= switch_words_ceiling))

(* The fleet's per-device path: [fleet_seq]'s work, a budget-scenario
   device with health, seed 42, run in isolation as [Fleet.run_device]
   runs it (its own store, its own ids). After one unmeasured device has
   interned every label and made every process-wide table, devices 0-15
   run and their words are divided by the events they fired, the
   [sim.events_fired] of their exports. Each device's fresh store sizes
   its metric caches by the process-wide handle indices, so the reading
   moves a little with the metric names registered before it: this
   suite alone reads 0.12 words less than [dune runtest]. The ceiling is
   the [dune runtest] reading rounded up to half a word; a change that
   lowers the reading lowers it. *)
let device_words_ceiling = 38.0

let test_device_words () =
  let module Fleet = Psbox_fleet.Fleet in
  let run i = Fleet.run_device ~health:true ~scenario:"budget" ~fleet_seed:42 i in
  ignore (run 0 : Fleet.device);
  let fired d =
    match List.assoc_opt "sim.events_fired" d.Fleet.d_metrics with
    | Some (Tm.Counter_v n) -> n
    | Some _ | None -> Alcotest.fail "no sim.events_fired counter"
  in
  let w0 = Gc.minor_words () in
  let events = ref 0.0 in
  for i = 0 to 15 do
    events := !events +. fired (run i)
  done;
  let words = (Gc.minor_words () -. w0) /. !events in
  Printf.printf "budget device: %.0f events, %.2f words/event\n" !events words;
  Alcotest.(check bool)
    (Printf.sprintf "a budget device allocates %.2f <= %.1f words per event"
       words device_words_ceiling)
    true
    (words <= device_words_ceiling)

let suite =
  [
    ( "power transitions settle without allocating",
      `Quick,
      test_transition_words );
    ("event loop replans without allocating", `Quick, test_replan_words);
    ( "a context switch stays under its word ceiling",
      `Quick,
      test_switch_words );
    ( "a budget-fleet device stays under its word ceiling",
      `Quick,
      test_device_words );
  ]
