(* Unit and property tests for the discrete-event engine. *)
open Psbox_engine
module Tm = Psbox_telemetry.Metrics

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---- Time ---------------------------------------------------------- *)

let test_time_units () =
  check_int "us" 1_000 (Time.us 1);
  check_int "ms" 1_000_000 (Time.ms 1);
  check_int "sec" 1_000_000_000 (Time.sec 1);
  check_int "of_sec_f" 1_500_000_000 (Time.of_sec_f 1.5);
  check_float "to_sec_f" 0.25 (Time.to_sec_f (Time.ms 250));
  check_float "to_us_f" 2.5 (Time.to_us_f 2_500);
  check_float "to_ms_f" 1.5 (Time.to_ms_f 1_500_000)

(* ---- Heap ---------------------------------------------------------- *)

(* The heap tests key each value by (value, insertion order) and carry its
   insertion index as the payload; [vals] maps the index back to the
   value. Popped entries read as (value, insertion index) pairs, so the
   checks also cover the order within equal values. *)
type keyed = { h : Heap.t; vals : int array; mutable n : int }

let keyed cap = { h = Heap.create (); vals = Array.make cap 0; n = 0 }

let kpush k x =
  k.vals.(k.n) <- x;
  Heap.push k.h ~time:x ~seq:k.n k.n;
  k.n <- k.n + 1

let kpeek k =
  let i = Heap.top k.h in
  if i < 0 then None else Some (k.vals.(i), i)

let kpop k =
  let top = kpeek k in
  if top <> None then Heap.drop k.h;
  top

let kdrain k =
  let rec go acc =
    match kpop k with Some e -> go (e :: acc) | None -> List.rev acc
  in
  go []

let keyed_of xs =
  let k = keyed (List.length xs) in
  List.iter (kpush k) xs;
  k

let sorted_pairs xs = List.sort compare (List.mapi (fun i x -> (x, i)) xs)

let test_heap_order () =
  let k = keyed_of [ 5; 1; 9; 3; 7; 2; 8; 4; 6; 0 ] in
  let out = List.init 10 (fun _ -> fst (Option.get (kpop k))) in
  Alcotest.(check (list int)) "sorted" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] out;
  check_int "empty after" 0 (Heap.size k.h);
  check_int "top of empty" (-1) (Heap.top k.h)

let test_heap_interleaved () =
  let k = keyed 4 in
  kpush k 3;
  kpush k 1;
  check_int "pop min" 1 (fst (Option.get (kpop k)));
  kpush k 0;
  check_int "peek" 0 (fst (Option.get (kpeek k)));
  check_int "size" 2 (Heap.size k.h);
  kpush k 0;
  Alcotest.(check (list (pair int int)))
    "equal values pop in insertion order" [ (0, 2); (0, 3); (3, 0) ] (kdrain k)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops in sorted order" ~count:200
    QCheck.(list int)
    (fun xs -> kdrain (keyed_of xs) = sorted_pairs xs)

(* ---- Sim ----------------------------------------------------------- *)

let test_sim_ordering () =
  let sim = Sim.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  ignore (Sim.schedule_at sim 30 (note "c"));
  ignore (Sim.schedule_at sim 10 (note "a"));
  ignore (Sim.schedule_at sim 10 (note "b"));
  (* same-instant events fire in scheduling order *)
  Sim.run sim;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log)

let test_sim_cancel () =
  let sim = Sim.create () in
  let fired = ref false in
  let h = Sim.schedule_at sim 10 (fun () -> fired := true) in
  Sim.cancel sim h;
  check_bool "cancelled" true (Sim.cancelled sim h);
  Sim.run sim;
  check_bool "did not fire" false !fired

let test_sim_run_until () =
  let sim = Sim.create () in
  let count = ref 0 in
  for i = 1 to 5 do
    ignore (Sim.schedule_at sim (i * 10) (fun () -> incr count))
  done;
  Sim.run_until sim 30;
  check_int "three fired" 3 !count;
  check_int "clock at limit" 30 (Sim.now sim);
  Sim.run_until sim 100;
  check_int "all fired" 5 !count

let test_sim_past_raises () =
  let sim = Sim.create () in
  Sim.run_until sim 100;
  Alcotest.check_raises "past" (Invalid_argument "Sim.schedule_at: 50ns is before now (100ns)")
    (fun () -> ignore (Sim.schedule_at sim 50 (fun () -> ())))

(* Each scheduling call names itself, and prints instants in nanoseconds:
   at 5 ms a -5 ns span renders as 5.000ms both ways at three decimals. *)
let test_sim_past_errors_name_caller () =
  let sim = Sim.create () in
  Sim.run_until sim (Time.ms 5);
  Alcotest.check_raises "negative span"
    (Invalid_argument "Sim.schedule_after: span -5ns is negative") (fun () ->
      ignore (Sim.schedule_after sim (-5) ignore));
  check_int "nothing scheduled" 0 (Sim.queue_length sim)

let test_sim_nested_schedule () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore
    (Sim.schedule_at sim 10 (fun () ->
         log := Sim.now sim :: !log;
         ignore (Sim.schedule_after sim 5 (fun () -> log := Sim.now sim :: !log))));
  Sim.run sim;
  Alcotest.(check (list int)) "nested times" [ 10; 15 ] (List.rev !log)

(* ---- Rng ----------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    check_int "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_split_independent () =
  let a = Rng.create ~seed:7 in
  let c = Rng.split a in
  let xs = List.init 50 (fun _ -> Rng.int a 1_000_000) in
  let ys = List.init 50 (fun _ -> Rng.int c 1_000_000) in
  check_bool "streams differ" true (xs <> ys)

let prop_rng_int_bounds =
  QCheck.Test.make ~name:"Rng.int stays in bounds" ~count:500
    QCheck.(pair small_int (int_bound 1000))
    (fun (seed, n) ->
      let n = n + 1 in
      let rng = Rng.create ~seed in
      let x = Rng.int rng n in
      x >= 0 && x < n)

let prop_rng_float_bounds =
  QCheck.Test.make ~name:"Rng.float stays in bounds" ~count:500 QCheck.small_int
    (fun seed ->
      let rng = Rng.create ~seed in
      let x = Rng.float rng 3.0 in
      x >= 0.0 && x < 3.0)

let test_rng_gaussian_moments () =
  let rng = Rng.create ~seed:11 in
  let xs = Array.init 20_000 (fun _ -> Rng.gaussian rng ~mu:5.0 ~sigma:2.0) in
  let m = Stats.mean xs and sd = Stats.stddev xs in
  check_bool "mean close" true (Float.abs (m -. 5.0) < 0.1);
  check_bool "sd close" true (Float.abs (sd -. 2.0) < 0.1)

let test_rng_exponential_mean () =
  let rng = Rng.create ~seed:13 in
  let xs = Array.init 20_000 (fun _ -> Rng.exponential rng ~mean:4.0) in
  check_bool "mean close" true (Float.abs (Stats.mean xs -. 4.0) < 0.2);
  check_bool "nonnegative" true (Array.for_all (fun x -> x >= 0.0) xs)

let test_rng_shuffle_permutes () =
  let rng = Rng.create ~seed:17 in
  let a = Array.init 20 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same elements" (Array.init 20 (fun i -> i)) sorted

(* ---- Timeline ------------------------------------------------------ *)

let test_timeline_values () =
  let tl = Timeline.create ~initial:1.0 () in
  Timeline.set tl 100 2.0;
  Timeline.set tl 200 3.0;
  check_float "before first" 1.0 (Timeline.value_at tl 50);
  check_float "at bp" 2.0 (Timeline.value_at tl 100);
  check_float "mid" 2.0 (Timeline.value_at tl 150);
  check_float "after last" 3.0 (Timeline.value_at tl 500)

let test_timeline_integrate () =
  let tl = Timeline.create ~initial:1.0 () in
  Timeline.set tl (Time.sec 1) 3.0;
  (* 1 W for 1 s then 3 W for 1 s *)
  check_float "energy" 4.0 (Timeline.integrate tl 0 (Time.sec 2));
  (* 0.5 s at 1 W + 0.5 s at 3 W *)
  check_float "partial" 2.0 (Timeline.integrate tl (Time.ms 500) (Time.of_sec_f 1.5));
  check_float "mean" 2.0 (Timeline.mean tl 0 (Time.sec 2))

let test_timeline_same_instant_overwrite () =
  let tl = Timeline.create ~initial:0.0 () in
  Timeline.set tl 10 5.0;
  Timeline.set tl 10 7.0;
  check_float "overwritten" 7.0 (Timeline.value_at tl 10)

let test_timeline_monotonic_guard () =
  let tl = Timeline.create () in
  Timeline.set tl 100 1.0;
  Alcotest.check_raises "backwards"
    (Invalid_argument "Timeline.set: 50ns is before last breakpoint 100ns")
    (fun () -> Timeline.set tl 50 2.0)

let test_timeline_samples () =
  let tl = Timeline.create ~initial:1.0 () in
  Timeline.set tl 100 2.0;
  let s = Timeline.samples tl ~period:50 ~from:0 ~until:200 in
  Alcotest.(check int) "count" 5 (Array.length s);
  check_float "s0" 1.0 (snd s.(0));
  check_float "s2" 2.0 (snd s.(2));
  check_float "s4" 2.0 (snd s.(4))

let prop_timeline_integral_additive =
  QCheck.Test.make ~name:"integral is additive over adjacent windows" ~count:200
    QCheck.(list (pair (int_bound 1000) (float_range 0.0 10.0)))
    (fun changes ->
      let tl = Timeline.create ~initial:1.0 () in
      let t = ref 0 in
      List.iter
        (fun (dt, v) ->
          t := !t + dt + 1;
          Timeline.set tl !t (Float.abs v))
        changes;
      let hi = !t + 100 in
      let mid = hi / 2 in
      let whole = Timeline.integrate tl 0 hi in
      let parts = Timeline.integrate tl 0 mid +. Timeline.integrate tl mid hi in
      Float.abs (whole -. parts) < 1e-9)

let prop_timeline_integral_nonneg =
  QCheck.Test.make ~name:"integral of nonnegative values is nonnegative"
    ~count:200
    QCheck.(list (pair (int_bound 1000) (float_range 0.0 5.0)))
    (fun changes ->
      let tl = Timeline.create ~initial:0.5 () in
      let t = ref 0 in
      List.iter
        (fun (dt, v) ->
          t := !t + dt + 1;
          Timeline.set tl !t (Float.abs v))
        changes;
      Timeline.integrate tl 0 (!t + 50) >= 0.0)

let test_timeline_map_intervals () =
  let tl = Timeline.create ~initial:1.0 () in
  Timeline.set tl 100 2.0;
  Timeline.set tl 200 3.0;
  let parts = Timeline.map_intervals tl ~from:50 ~until:250 ~f:(fun a b v -> (a, b, v)) in
  Alcotest.(check int) "three parts" 3 (List.length parts);
  let a, b, v = List.hd parts in
  check_int "first start" 50 a;
  check_int "first stop" 100 b;
  check_float "first value" 1.0 v

(* ---- Stats --------------------------------------------------------- *)

let test_stats_basics () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check_float "mean" 3.0 (Stats.mean xs);
  check_float "median" 3.0 (Stats.median xs);
  check_float "min" 1.0 (Stats.min xs);
  check_float "max" 5.0 (Stats.max xs);
  check_float "sum" 15.0 (Stats.sum xs);
  check_float "stddev" (sqrt 2.5) (Stats.stddev xs)

let test_stats_percentile () =
  let xs = Array.init 101 (fun i -> float_of_int i) in
  check_float "p0" 0.0 (Stats.percentile xs 0.0);
  check_float "p50" 50.0 (Stats.percentile xs 50.0);
  check_float "p100" 100.0 (Stats.percentile xs 100.0);
  check_float "p95" 95.0 (Stats.percentile xs 95.0)

let test_stats_histogram () =
  let xs = [| 0.0; 0.1; 0.9; 1.0 |] in
  let h = Stats.histogram xs ~bins:2 in
  check_int "bin0" 2 h.Stats.counts.(0);
  check_int "bin1" 2 h.Stats.counts.(1)

let prop_stats_mean_bounds =
  QCheck.Test.make ~name:"mean is between min and max" ~count:300
    QCheck.(list_of_size Gen.(1 -- 50) (float_range (-100.0) 100.0))
    (fun xs ->
      let a = Array.of_list xs in
      let m = Stats.mean a in
      m >= Stats.min a -. 1e-9 && m <= Stats.max a +. 1e-9)

(* ---- Trace --------------------------------------------------------- *)

let test_trace_events () =
  let tr = Trace.events () in
  Trace.emit tr 10 "a";
  Trace.emit tr 20 "b";
  Alcotest.(check int) "count" 2 (Trace.count tr);
  Alcotest.(check (list (pair int string))) "order" [ (10, "a"); (20, "b") ]
    (Trace.to_list tr)

(* A retention window keeps exactly the entries stamped no more than R
   before the newest, across ring chunks and their reuse. *)
let prop_trace_retention =
  QCheck.Test.make ~name:"trace retention keeps the window" ~count:200
    QCheck.(
      pair (int_range 1 200) (list_of_size Gen.(0 -- 400) (int_range 0 3)))
    (fun (r, gaps) ->
      let ev = Trace.events ~retention:r () in
      let now = ref 0 in
      let all =
        List.mapi
          (fun i gap ->
            now := !now + gap;
            Trace.emit ev !now i;
            (!now, i))
          gaps
      in
      let kept = List.filter (fun (t, _) -> t >= !now - r) all in
      Trace.to_list ev = kept
      && Trace.values ev = List.map snd kept
      && Trace.count ev = List.length kept)

(* ---- Bus ----------------------------------------------------------- *)

let test_bus_order_and_unsubscribe () =
  let bus = Bus.create () in
  let log = ref [] in
  let s1 = Bus.subscribe bus (fun x -> log := ("a", x) :: !log) in
  let _s2 = Bus.subscribe bus (fun x -> log := ("b", x) :: !log) in
  Bus.publish bus 1;
  Alcotest.(check (list (pair string int)))
    "subscription order" [ ("a", 1); ("b", 1) ] (List.rev !log);
  check_int "two subscribers" 2 (Bus.subscriber_count bus);
  Bus.unsubscribe s1;
  Bus.unsubscribe s1;
  (* idempotent *)
  check_bool "inactive" false (Bus.active s1);
  check_int "one left" 1 (Bus.subscriber_count bus);
  log := [];
  Bus.publish bus 2;
  Alcotest.(check (list (pair string int))) "only b" [ ("b", 2) ] (List.rev !log)

let test_bus_unsubscribe_mid_publish () =
  let bus = Bus.create () in
  let log = ref [] in
  let s2 = ref None in
  ignore
    (Bus.subscribe bus (fun x ->
         log := ("a", x) :: !log;
         match !s2 with Some s -> Bus.unsubscribe s | None -> ()));
  s2 := Some (Bus.subscribe bus (fun x -> log := ("b", x) :: !log));
  Bus.publish bus 1;
  (* b was unsubscribed by a's handler before delivery reached it *)
  Alcotest.(check (list (pair string int))) "b skipped" [ ("a", 1) ] (List.rev !log)

let test_bus_subscribe_mid_publish () =
  let bus = Bus.create () in
  let log = ref [] in
  ignore
    (Bus.subscribe bus (fun x ->
         log := ("a", x) :: !log;
         if x = 1 then ignore (Bus.subscribe bus (fun y -> log := ("late", y) :: !log))));
  Bus.publish bus 1;
  Alcotest.(check (list (pair string int)))
    "late subscriber misses in-flight event" [ ("a", 1) ] (List.rev !log);
  log := [];
  Bus.publish bus 2;
  check_int "late subscriber sees the next one" 2 (List.length !log)

(* ---- Sim cancellation bookkeeping ----------------------------------- *)

let test_sim_pending_excludes_cancelled () =
  let sim = Sim.create () in
  let h1 = Sim.schedule_at sim 10 (fun () -> ()) in
  let _h2 = Sim.schedule_at sim 20 (fun () -> ()) in
  let _h3 = Sim.schedule_at sim 30 (fun () -> ()) in
  check_int "three live" 3 (Sim.pending sim);
  Sim.cancel sim h1;
  check_int "cancelled excluded immediately" 2 (Sim.pending sim);
  Sim.cancel sim h1;
  (* double cancel must not double-count *)
  check_int "idempotent cancel" 2 (Sim.pending sim);
  Sim.run sim;
  check_int "drained" 0 (Sim.pending sim)

let test_sim_bulk_reap () =
  let sim = Sim.create () in
  let fired = ref 0 in
  let handles =
    Array.init 200 (fun i ->
        Sim.schedule_at sim ((i + 1) * 10) (fun () -> incr fired))
  in
  check_int "all queued" 200 (Sim.queue_length sim);
  for i = 0 to 149 do
    Sim.cancel sim handles.(i)
  done;
  check_int "live count exact" 50 (Sim.pending sim);
  check_bool "tombstones reaped in bulk" true (Sim.queue_length sim < 200);
  ignore (Sim.schedule_at sim 5_000 (fun () -> ()));
  Sim.run sim;
  check_int "survivors still fire" 50 !fired;
  check_int "empty" 0 (Sim.queue_length sim)

(* Handle staleness: once an event fires, its pooled slot is recycled and
   every outstanding handle to it goes stale — cancel/cancelled on the old
   handle must not touch the slot's new occupant. *)
let test_sim_stale_handle_no_ops () =
  let sim = Sim.create () in
  let fired = ref 0 in
  let h1 = Sim.schedule_at sim 10 (fun () -> incr fired) in
  Sim.run_until sim 20;
  check_int "first fired" 1 !fired;
  check_bool "fired handle reads done" false (Sim.cancelled sim h1);
  (* with pooling on, the next event reuses h1's slot index *)
  ignore (Sim.schedule_at sim 30 (fun () -> incr fired));
  Sim.cancel sim h1;
  (* stale cancel: a no-op *)
  check_int "recycled occupant unaffected" 1 (Sim.pending sim);
  Sim.cancel sim Sim.none;
  (* none: also a no-op *)
  Sim.run sim;
  check_int "recycled occupant fired" 2 !fired

(* A body that re-arms first makes the timer periodic; a second arm of a
   pending timer and any arm of a stopped one do nothing. *)
let test_sim_schedule_every () =
  let sim = Sim.create () in
  Alcotest.check_raises "period must be positive"
    (Invalid_argument "Sim.timer: period must be positive") (fun () ->
      ignore (Sim.timer sim 0));
  let fires = ref [] in
  let tm = Sim.timer sim 10 in
  let rec body () =
    Sim.arm tm body;
    fires := Sim.now sim :: !fires
  in
  check_bool "made idle" true (Sim.timer_state tm = Sim.Idle);
  Sim.arm tm body;
  Sim.arm tm body;
  check_int "one occurrence pending" 1 (Sim.pending sim);
  Sim.run_until sim 35;
  Alcotest.(check (list int)) "fires every period" [ 10; 20; 30 ] (List.rev !fires);
  check_bool "armed" true (Sim.timer_state tm = Sim.Armed);
  Sim.stop_timer tm;
  check_bool "stopped" true (Sim.timer_state tm = Sim.Stopped);
  check_int "in-flight occurrence cancelled" 0 (Sim.pending sim);
  Sim.arm tm body;
  check_int "a stopped timer does not arm" 0 (Sim.pending sim);
  Sim.run_until sim 100;
  check_int "no more fires" 3 (List.length !fires);
  Sim.stop_timer tm (* idempotent *)

(* The grid is anchored where the timer is made, not where it is armed: an
   idle gap skips grid instants without moving them, and an arm exactly on
   a grid instant takes the next one. *)
let test_sim_schedule_every_start () =
  let sim = Sim.create () in
  Sim.run_until sim 5;
  let fires = ref [] in
  let tm = Sim.timer sim 10 in
  let note () = fires := Sim.now sim :: !fires in
  Sim.arm tm note;
  Sim.run_until sim 40;
  Sim.arm tm note;
  Sim.run_until sim 55;
  Sim.arm tm note;
  Sim.run_until sim 100;
  Alcotest.(check (list int)) "grid from 5" [ 15; 45; 65 ] (List.rev !fires)

let test_sim_schedule_every_rearms_before_body () =
  (* The body schedules work for its own instant; because the timer re-armed
     first, that work still runs before the next tick. *)
  let sim = Sim.create () in
  let log = ref [] in
  let tm = Sim.timer sim 10 in
  let rec body () =
    Sim.arm tm body;
    log := `Tick (Sim.now sim) :: !log;
    ignore (Sim.schedule_after sim 0 (fun () -> log := `After (Sim.now sim) :: !log))
  in
  Sim.arm tm body;
  Sim.run_until sim 20;
  Sim.stop_timer tm;
  Alcotest.(check bool) "tick then same-instant work, twice" true
    (List.rev !log = [ `Tick 10; `After 10; `Tick 20; `After 20 ])

(* ---- Heap maintenance ----------------------------------------------- *)

let test_heap_filter_in_place () =
  let k = keyed_of [ 9; 3; 7; 1; 8; 2; 6; 4; 5; 0 ] in
  Heap.filter_in_place k.h ~keep:(fun i -> k.vals.(i) mod 2 = 0);
  check_int "evens kept" 5 (Heap.size k.h);
  Alcotest.(check (list int)) "still a heap" [ 0; 2; 4; 6; 8 ]
    (List.map fst (kdrain k))

let prop_heap_filter_keeps_order =
  QCheck.Test.make ~name:"filter_in_place preserves heap order" ~count:200
    QCheck.(pair (list int) (int_bound 10))
    (fun (xs, m) ->
      let k = keyed_of xs in
      let keep x = abs x mod 11 >= m in
      Heap.filter_in_place k.h ~keep:(fun i -> keep k.vals.(i));
      kdrain k = List.filter (fun (x, _) -> keep x) (sorted_pairs xs))

let prop_heap_model =
  (* Random interleaving of pushes and pops, checked against a sorted-list
     model of the same operations. *)
  QCheck.Test.make ~name:"heap matches a sorted-list model" ~count:200
    QCheck.(list (pair bool int))
    (fun ops ->
      let k = keyed (List.length ops) in
      let model = ref [] in
      List.for_all
        (fun (is_push, x) ->
          if is_push then begin
            model := List.sort compare ((x, k.n) :: !model);
            kpush k x;
            Heap.size k.h = List.length !model
          end
          else
            match (kpop k, !model) with
            | None, [] -> true
            | Some y, m :: rest ->
                model := rest;
                y = m
            | _ -> false)
        ops)

(* ---- Timeline prefix sums and compaction ----------------------------- *)

(* Reference integrator: a plain walk over the step function, the way
   [integrate] worked before the prefix-sum refactor. *)
let naive_integrate bps ~initial t0 t1 =
  let points =
    (0, initial) :: bps
    |> List.filter (fun (bt, _) -> bt < t1)
  in
  let rec walk acc = function
    | [] -> acc
    | (bt, v) :: rest ->
        let stop = match rest with (bt', _) :: _ -> min bt' t1 | [] -> t1 in
        let start = max bt t0 in
        let acc =
          if stop > start then acc +. (v *. Time.to_sec_f (stop - start)) else acc
        in
        walk acc rest
  in
  walk 0.0 points

let prop_timeline_matches_naive =
  QCheck.Test.make ~name:"prefix-sum integrate matches naive walk" ~count:300
    QCheck.(
      triple
        (list_of_size Gen.(0 -- 40) (pair (int_bound 1000) (float_range 0.0 10.0)))
        (int_bound 20_000) (int_bound 20_000))
    (fun (changes, a, b) ->
      let initial = 1.5 in
      let tl = Timeline.create ~initial () in
      let t = ref 0 in
      let bps =
        List.map
          (fun (dt, v) ->
            t := !t + dt + 1;
            Timeline.set tl !t v;
            (!t, v))
          changes
      in
      (* [set] at an existing instant overwrites, so dedup the reference the
         same way (our generator always advances time; keep it anyway) *)
      let t0 = min a b and t1 = max a b in
      let exact = Timeline.integrate tl t0 t1 in
      let naive = naive_integrate bps ~initial t0 t1 in
      Float.abs (exact -. naive) <= 1e-9 *. Float.max 1.0 (Float.abs naive))

let test_timeline_energy_at () =
  let tl = Timeline.create ~initial:2.0 () in
  Timeline.set tl (Time.sec 1) 4.0;
  check_float "origin" 0.0 (Timeline.energy_at tl 0);
  check_float "first segment" 2.0 (Timeline.energy_at tl (Time.sec 1));
  check_float "across breakpoint" 6.0 (Timeline.energy_at tl (Time.sec 2));
  check_float "difference is integrate" 4.0
    (Timeline.energy_at tl (Time.sec 2) -. Timeline.energy_at tl (Time.sec 1))

let test_timeline_compact () =
  let tl = Timeline.create ~initial:0.0 () in
  for i = 1 to 10 do
    Timeline.set tl (Time.sec i) (float_of_int i)
  done;
  check_int "11 breakpoints" 11 (Timeline.length tl);
  let tail = Timeline.integrate tl (Time.sec 6) (Time.sec 10) in
  let e8 = Timeline.energy_at tl (Time.sec 8) in
  let dropped = Timeline.compact tl ~before:(Time.sec 6) in
  check_int "dropped" 6 dropped;
  check_int "dropped counter" 6 (Timeline.dropped tl);
  check_int "retained" 5 (Timeline.length tl);
  (* inside the retained horizon everything stays exact, including the
     absolute energy origin *)
  check_float "energy origin stable" e8 (Timeline.energy_at tl (Time.sec 8));
  check_float "retained window exact" tail
    (Timeline.integrate tl (Time.sec 6) (Time.sec 10));
  check_float "value at horizon" 6.0 (Timeline.value_at tl (Time.sec 6));
  (* pre-horizon queries degrade to the oldest retained value, as documented *)
  check_float "pre-horizon degrades" 6.0 (Timeline.value_at tl (Time.sec 2))

let test_timeline_retention () =
  let tl = Timeline.create ~initial:0.0 ~retention:(Time.sec 2) () in
  for i = 1 to 100 do
    Timeline.set tl (Time.ms (i * 100)) (float_of_int (i mod 7))
  done;
  (* 10 s of history at 100 ms per breakpoint, 2 s retention: far fewer than
     101 breakpoints retained, and recent integrals still exact *)
  check_bool "history bounded" true (Timeline.length tl < 50);
  check_bool "something dropped" true (Timeline.dropped tl > 0);
  let exact_recent =
    let rec sum i acc =
      if i > 99 then acc
      else sum (i + 1) (acc +. (float_of_int (i mod 7) *. 0.1))
    in
    sum 91 0.0
  in
  check_bool "recent window exact" true
    (Float.abs (Timeline.integrate tl (Time.ms 9_100) (Time.sec 10) -. exact_recent)
    < 1e-9)

(* ---- Sim against a model ---------------------------------------------- *)

(* The event loop's own metrics over a fixed script, in a fresh store: 300
   schedules with interleaved cancels that cross the bulk-reap threshold
   twice, two partial runs, and tombstones left in the queue at the end.
   The expected values are those of the timing wheel and of the
   closure-compared heap that the int-keyed heap replaced. *)
let test_sim_loop_metrics () =
  Tm.with_fresh_store (fun () ->
      let sim = Sim.create () in
      let h = Array.make 300 Sim.none in
      for i = 0 to 199 do
        h.(i) <- Sim.schedule_at sim (Time.us (1 + (i * 37 mod 200))) ignore;
        if i mod 4 <> 0 then Sim.cancel sim h.(i)
      done;
      Sim.run_until sim (Time.us 100);
      for i = 200 to 299 do
        h.(i) <- Sim.schedule_after sim (Time.us (i * 13 mod 150)) ignore;
        if i mod 2 = 0 then Sim.cancel sim h.(i - 1);
        if i mod 5 = 0 then Sim.cancel sim h.(i - 200)
      done;
      Sim.run_until sim (Time.us 180);
      List.iter
        (fun (name, want) ->
          check_float name want
            (Option.value ~default:nan (Tm.find ("sim." ^ name))))
        [
          ("events_scheduled", 300.);
          ("events_fired", 70.);
          ("events_cancelled", 201.);
          ("queue_depth", 54.);
          ("queue_depth_max", 134.);
          ("reap_passes", 2.);
          ("tombstones_reaped", 130.);
        ];
      check_int "pending" 29 (Sim.pending sim);
      check_int "queue_length" 54 (Sim.queue_length sim))

(* The event queue against a reference model: a list of the live
   (time, seq, id), fired in sorted order. A program mixes schedules (spans
   up to 200 ms on a 1 ms grid, so same-instant ties are common, and
   far-future ones up to about 4.6 simulated days), cancels of live and of
   stale handles (fired, or cancelled before), [run_until] and a final
   [run]. After every op the fire log (id, time), the clock and the live
   count must match the model, and [pending] cannot exceed the physical
   queue length. About two programs in five cross the bulk-reap threshold:
   four in five of those with 200 or more ops, nine in ten with 250. *)
let prop_sim_model =
  QCheck.Test.make ~name:"sim fires like a sorted (time, seq) model" ~count:200
    QCheck.(list_of_size Gen.(0 -- 400) (pair (int_bound 15) (int_bound 200)))
    (fun ops ->
      let sim = Sim.create () in
      let log = ref [] and model_log = ref [] in
      let live = ref [] and now = ref 0 and seq = ref 0 in
      let armed = ref [] and stale = ref [] in
      let schedule id span =
        let h =
          Sim.schedule_after sim span (fun () ->
              log := (id, Sim.now sim) :: !log)
        in
        live := (!now + span, !seq, id) :: !live;
        incr seq;
        armed := (h, id) :: !armed
      in
      let cancel (h, id) =
        Sim.cancel sim h;
        live := List.filter (fun (_, _, i) -> i <> id) !live
      in
      let fire_model limit =
        let due, rest = List.partition (fun (t, _, _) -> t <= limit) !live in
        List.iter
          (fun (t, _, id) ->
            model_log := (id, t) :: !model_log;
            now := t)
          (List.sort compare due);
        live := rest
      in
      let agrees () =
        !log = !model_log
        && Sim.now sim = !now
        && Sim.pending sim = List.length !live
        && Sim.pending sim <= Sim.queue_length sim
      in
      let step id (op, dt) =
        (match op with
        | 0 | 1 | 2 | 3 -> schedule id (Time.ms dt)
        | 4 | 5 | 6 | 7 -> schedule id (Time.ms dt * 2_000_000)
        | 8 | 9 | 10 | 11 | 12 | 13 -> (
            match !armed with
            | e :: rest ->
                cancel e;
                armed := rest;
                stale := e :: !stale
            | [] -> ())
        | 14 -> ( match !stale with e :: _ -> cancel e | [] -> ())
        | _ ->
            let limit = !now + Time.ms (dt / 10) in
            Sim.run_until sim limit;
            fire_model limit;
            now := limit);
        agrees ()
      in
      let rec go id = function
        | [] ->
            Sim.run sim;
            fire_model max_int;
            agrees ()
        | op :: rest -> step id op && go (id + 1) rest
      in
      go 0 ops)

(* Slot pooling must be invisible: a pooled sim and a fresh-handles sim
   (pooling off — every event allocates its own record, the pre-pool
   behavior) must realise identical (id, time) fire orders, pending counts
   and cancelled-query answers under random schedule / cancel / stale-
   cancel / reap interleavings. Ops 1 and 2 cancel live and {e retired}
   handles respectively, so cancel-after-recycle staleness is on the
   tested path; 150+-event programs cross the bulk-reap threshold. *)
let prop_pooling_invisible =
  QCheck.Test.make ~name:"pooled and fresh-handle sims realise the same schedule"
    ~count:100
    QCheck.(list (pair (int_bound 4) (int_bound 50_000_000)))
    (fun ops ->
      let trace pooling =
        let sim = Sim.create ~pooling () in
        let log = ref [] in
        let live = ref [] and old = ref [] in
        let k = ref 0 in
        List.iter
          (fun (op, dt) ->
            match op with
            | 0 | 3 ->
                incr k;
                let id = !k in
                let h =
                  Sim.schedule_after sim (dt mod 5_000_000) (fun () ->
                      log := (id, Sim.now sim) :: !log)
                in
                live := h :: !live
            | 1 -> (
                match !live with
                | h :: rest ->
                    Sim.cancel sim h;
                    live := rest;
                    old := h :: !old
                | [] -> ())
            | 2 -> (
                (* stale or double cancel, plus a cancelled query *)
                match !old with
                | h :: _ ->
                    Sim.cancel sim h;
                    log := ((if Sim.cancelled sim h then -3 else -4), 0) :: !log
                | [] -> ())
            | _ ->
                Sim.run_until sim (Sim.now sim + dt);
                log := (-1, Sim.now sim) :: !log;
                log := (-2, Sim.pending sim) :: !log)
          ops;
        Sim.run sim;
        (List.rev !log, Sim.now sim, Sim.pending sim)
      in
      trace true = trace false)

(* ---- Shares in app order ---------------------------------------------- *)

(* A random script of share changes on app ids 0-80: a positive share sets
   the app, zero, a negative share or NaN removes it; biased towards
   setting, so that many apps are live at once. After every change,
   [Shares] must hold the reference map's apps in ascending order, with
   their shares, and a running sum with the bits of a fold from 0 in that
   order. *)
let share_script =
  let open QCheck.Gen in
  let share =
    frequency
      [
        (6, float_range 0.001 8.0);
        (1, map float_of_int (int_range 1 3));
        (2, return 0.0);
        (1, return (-1.0));
        (1, return Float.nan);
      ]
  in
  list_size (int_range 1 400) (pair (int_range 0 80) share)

module Int_map = Map.Make (Int)

let prop_shares_in_app_order =
  QCheck.Test.make ~name:"Shares lists, shares and sums in app order"
    ~count:200
    (QCheck.make
       ~print:(fun ops ->
         String.concat "; "
           (List.map (fun (app, s) -> Printf.sprintf "%d:%g" app s) ops))
       share_script)
    (fun ops ->
      let sh = Shares.create () in
      let want = ref Int_map.empty in
      List.for_all
        (fun (app, share) ->
          Shares.set sh ~app share;
          want :=
            if share > 0.0 then Int_map.add app share !want
            else Int_map.remove app !want;
          let entries = Int_map.bindings !want in
          let sum = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 entries in
          let got =
            List.init sh.Shares.len (fun i ->
                (sh.Shares.apps.(i), sh.Shares.shares.(i)))
          in
          got = entries
          && Int64.equal
               (Int64.bits_of_float sh.Shares.total.sum)
               (Int64.bits_of_float sum))
        ops)

let qcheck = QCheck_alcotest.to_alcotest

(* Grid timers against a model: random programs of make, arm, stop and
   run_until over up to four timers, some of whose bodies re-arm first.
   After every step each timer's fires and state match the model, in which
   an arm fires once, at the first point epoch + k*period (k >= 1) after
   the arm instant, nothing fires after a stop, and a timer has at most one
   occurrence pending. *)
type model_timer = {
  mt : Sim.timer;
  m_epoch : Time.t;
  m_period : Time.span;
  m_rearm : bool;
  mutable m_next : Time.t option;
  mutable m_stopped : bool;
  mutable m_fires : Time.t list; (* newest first *)
  fires : Time.t list ref; (* what the timer's bodies saw, newest first *)
}

let prop_timer_model =
  QCheck.Test.make ~name:"grid timers fire like an anchored-grid model"
    ~count:300
    QCheck.(list_of_size Gen.(0 -- 60) (pair (int_bound 9) (int_bound 40)))
    (fun ops ->
      let sim = Sim.create () in
      let now = ref 0 and timers = ref [||] in
      (* the first of t, t + period, ... after now *)
      let rec grid_after period t =
        if t > !now then t else grid_after period (t + period)
      in
      let make period rearm =
        let fires = ref [] in
        let tm = Sim.timer sim period in
        let m =
          { mt = tm; m_epoch = !now; m_period = period; m_rearm = rearm;
            m_next = None; m_stopped = false; m_fires = []; fires }
        in
        timers := Array.append !timers [| m |]
      in
      let rec body m () =
        if m.m_rearm then Sim.arm m.mt (body m);
        m.fires := Sim.now sim :: !(m.fires)
      in
      let arm m =
        Sim.arm m.mt (body m);
        if (not m.m_stopped) && m.m_next = None then
          m.m_next <- Some (grid_after m.m_period (m.m_epoch + m.m_period))
      in
      let stop m =
        Sim.stop_timer m.mt;
        m.m_stopped <- true;
        m.m_next <- None
      in
      let run_model limit =
        Array.iter
          (fun m ->
            let rec go () =
              match m.m_next with
              | Some t when t <= limit ->
                  m.m_fires <- t :: m.m_fires;
                  m.m_next <- (if m.m_rearm then Some (t + m.m_period) else None);
                  go ()
              | Some _ | None -> ()
            in
            go ())
          !timers
      in
      let agrees () =
        Sim.pending sim
        = Array.fold_left
            (fun n m -> if m.m_next = None then n else n + 1)
            0 !timers
        && Array.for_all
             (fun m ->
               !(m.fires) = m.m_fires
               && Sim.timer_state m.mt
                  = (if m.m_stopped then Sim.Stopped
                     else if m.m_next = None then Sim.Idle
                     else Sim.Armed))
             !timers
      in
      let pick k = !timers.(k mod Array.length !timers) in
      let step (op, x) =
        (match op with
        | 0 | 1 when Array.length !timers < 4 -> make (1 + (x mod 12)) (op = 1)
        | 0 | 1 | 2 | 3 | 4 when Array.length !timers > 0 -> arm (pick x)
        | 5 when Array.length !timers > 0 -> stop (pick x)
        | _ ->
            let limit = !now + x in
            Sim.run_until sim limit;
            run_model limit;
            now := limit);
        agrees ()
      in
      List.for_all step ops)

let suite =
  [
    ("time units", `Quick, test_time_units);
    ("heap order", `Quick, test_heap_order);
    ("heap interleaved", `Quick, test_heap_interleaved);
    ("sim same-instant FIFO", `Quick, test_sim_ordering);
    ("sim cancel", `Quick, test_sim_cancel);
    ("sim run_until", `Quick, test_sim_run_until);
    ("sim rejects the past", `Quick, test_sim_past_raises);
    ("sim nested scheduling", `Quick, test_sim_nested_schedule);
    ( "sim past-time errors name their caller",
      `Quick,
      test_sim_past_errors_name_caller );
    ("sim loop metrics are pinned", `Quick, test_sim_loop_metrics);
    ("rng deterministic", `Quick, test_rng_deterministic);
    ("rng split independent", `Quick, test_rng_split_independent);
    ("rng gaussian moments", `Quick, test_rng_gaussian_moments);
    ("rng exponential mean", `Quick, test_rng_exponential_mean);
    ("rng shuffle permutes", `Quick, test_rng_shuffle_permutes);
    ("timeline values", `Quick, test_timeline_values);
    ("timeline integrate", `Quick, test_timeline_integrate);
    ("timeline same-instant overwrite", `Quick, test_timeline_same_instant_overwrite);
    ("timeline monotonic guard", `Quick, test_timeline_monotonic_guard);
    ("timeline samples", `Quick, test_timeline_samples);
    ("timeline map_intervals", `Quick, test_timeline_map_intervals);
    ("stats basics", `Quick, test_stats_basics);
    ("stats percentile", `Quick, test_stats_percentile);
    ("stats histogram", `Quick, test_stats_histogram);
    ("trace events", `Quick, test_trace_events);
    ("bus order and unsubscribe", `Quick, test_bus_order_and_unsubscribe);
    ("bus unsubscribe mid-publish", `Quick, test_bus_unsubscribe_mid_publish);
    ("bus subscribe mid-publish", `Quick, test_bus_subscribe_mid_publish);
    ("sim pending excludes cancelled", `Quick, test_sim_pending_excludes_cancelled);
    ("sim bulk tombstone reap", `Quick, test_sim_bulk_reap);
    ("sim stale handles no-op", `Quick, test_sim_stale_handle_no_ops);
    ("sim schedule_every", `Quick, test_sim_schedule_every);
    ("sim schedule_every start", `Quick, test_sim_schedule_every_start);
    ("sim schedule_every re-arms first", `Quick, test_sim_schedule_every_rearms_before_body);
    ("heap filter_in_place", `Quick, test_heap_filter_in_place);
    ("timeline energy_at", `Quick, test_timeline_energy_at);
    ("timeline compact", `Quick, test_timeline_compact);
    ("timeline retention", `Quick, test_timeline_retention);
    qcheck prop_heap_sorts;
    qcheck prop_heap_filter_keeps_order;
    qcheck prop_heap_model;
    qcheck prop_shares_in_app_order;
    qcheck prop_timeline_matches_naive;
    qcheck prop_rng_int_bounds;
    qcheck prop_rng_float_bounds;
    qcheck prop_timeline_integral_additive;
    qcheck prop_timeline_integral_nonneg;
    qcheck prop_stats_mean_bounds;
    qcheck prop_sim_model;
    qcheck prop_pooling_invisible;
    qcheck prop_trace_retention;
    qcheck prop_timer_model;
  ]
