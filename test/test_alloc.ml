(* Allocation guards for two hot paths. A rail transition settles the
   kernel energy ledger, the joule audit and the live usage splitter; none
   of them may allocate per transition beyond the fixed margins below. And
   the event loop must run Smp's replan pattern without allocating per
   tick. Minor words are deterministic, so the margins are exact counts,
   not timings. *)
open Psbox_engine
module System = Psbox_kernel.System
module Smp = Psbox_kernel.Smp
module Temporal_sched = Psbox_kernel.Temporal_sched
module Audit = Psbox_audit.Audit
module Split = Psbox_accounting.Split
module Power_rail = Psbox_hw.Power_rail

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
          { Temporal_sched.at = now; app; share = 1.0 })
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

let suite =
  [
    ( "power transitions settle without allocating",
      `Quick,
      test_transition_words );
    ("event loop replans without allocating", `Quick, test_replan_words);
  ]
