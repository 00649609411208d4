(* Unit and property tests for the discrete-event engine. *)
open Psbox_engine

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

let test_heap_order () =
  let h = Heap.create ~cmp:compare in
  List.iter (Heap.push h) [ 5; 1; 9; 3; 7; 2; 8; 4; 6; 0 ];
  let out = List.init 10 (fun _ -> Option.get (Heap.pop h)) in
  Alcotest.(check (list int)) "sorted" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] out;
  check_bool "empty after" true (Heap.is_empty h)

let test_heap_interleaved () =
  let h = Heap.create ~cmp:compare in
  Heap.push h 3;
  Heap.push h 1;
  check_int "pop min" 1 (Option.get (Heap.pop h));
  Heap.push h 0;
  check_int "peek" 0 (Option.get (Heap.peek h));
  check_int "size" 2 (Heap.size h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops in sorted order" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Heap.create ~cmp:compare in
      List.iter (Heap.push h) xs;
      let rec drain acc =
        match Heap.pop h with Some x -> drain (x :: acc) | None -> List.rev acc
      in
      drain [] = List.sort compare xs)

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

let test_trace_spans () =
  let tr = Trace.spans () in
  Trace.open_span tr 0 "x";
  Trace.open_span tr 5 "y";
  Trace.close_span tr 10 "x";
  Trace.close_span tr 20 "y";
  let spans = Trace.to_spans tr in
  Alcotest.(check int) "two spans" 2 (List.length spans);
  check_int "x duration" 10 (Trace.total_duration tr (fun t -> t = "x"));
  check_int "y duration" 15 (Trace.total_duration tr (fun t -> t = "y"))

let test_trace_double_open () =
  let tr = Trace.spans () in
  Trace.open_span tr 0 "x";
  Alcotest.check_raises "double open"
    (Invalid_argument "Trace.open_span: tag already open") (fun () ->
      Trace.open_span tr 5 "x")

let test_trace_close_all () =
  let tr = Trace.spans () in
  Trace.open_span tr 0 1;
  Trace.open_span tr 2 2;
  Trace.close_all tr 10;
  Alcotest.(check int) "both closed" 2 (List.length (Trace.to_spans tr));
  Alcotest.(check bool) "none open" false (Trace.is_open tr 1)

let test_trace_overlaps () =
  let s1 = { Trace.start = 0; stop = 10; tag = () } in
  let s2 = { Trace.start = 5; stop = 15; tag = () } in
  let s3 = { Trace.start = 10; stop = 20; tag = () } in
  check_bool "overlap" true (Trace.overlaps s1 s2);
  check_bool "touching is not overlap" false (Trace.overlaps s1 s3)

(* A retention window keeps exactly the entries stamped no more than R
   before the newest, across ring chunks and their reuse; to_spans keeps
   the order of a stable sort of the newest-first list, so of two spans
   with equal bounds the later-completed one comes first. *)
let prop_trace_retention =
  QCheck.Test.make ~name:"trace retention keeps the window" ~count:200
    QCheck.(
      pair (int_range 1 200)
        (list_of_size Gen.(0 -- 400) (pair (int_range 0 3) (int_range 0 12))))
    (fun (r, steps) ->
      let ev = Trace.events ~retention:r () and sp = Trace.spans ~retention:r () in
      let now = ref 0 in
      let all =
        List.mapi
          (fun i (gap, len) ->
            now := !now + gap;
            Trace.emit ev !now i;
            Trace.open_span sp (!now - len) i;
            Trace.close_span sp !now i;
            { Trace.start = !now - len; stop = !now; tag = i })
          steps
      in
      let kept = List.filter (fun s -> s.Trace.stop >= !now - r) all in
      let by_bounds a b =
        compare (a.Trace.start, a.Trace.stop) (b.Trace.start, b.Trace.stop)
      in
      Trace.to_list ev = List.map (fun s -> (s.Trace.stop, s.Trace.tag)) kept
      && Trace.values ev = List.map (fun s -> s.Trace.tag) kept
      && Trace.count ev = List.length kept
      && Trace.to_spans sp = List.stable_sort by_bounds (List.rev kept)
      && Trace.total_duration sp (fun _ -> true)
         = List.fold_left (fun acc s -> acc + s.Trace.stop - s.Trace.start) 0 kept)

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

let test_sim_schedule_every () =
  let sim = Sim.create () in
  let fires = ref [] in
  let p = Sim.schedule_every sim 10 (fun () -> fires := Sim.now sim :: !fires) in
  Sim.run_until sim 35;
  Alcotest.(check (list int)) "fires every period" [ 10; 20; 30 ] (List.rev !fires);
  check_bool "not stopped" false (Sim.periodic_stopped p);
  Sim.cancel_every p;
  check_bool "stopped" true (Sim.periodic_stopped p);
  check_int "in-flight occurrence cancelled" 0 (Sim.pending sim);
  Sim.run_until sim 100;
  check_int "no more fires" 3 (List.length !fires);
  Sim.cancel_every p (* idempotent *)

let test_sim_schedule_every_start () =
  let sim = Sim.create () in
  let fires = ref [] in
  let p =
    Sim.schedule_every sim ~start:5 10 (fun () -> fires := Sim.now sim :: !fires)
  in
  Sim.run_until sim 26;
  Alcotest.(check (list int)) "offset start" [ 5; 15; 25 ] (List.rev !fires);
  Sim.cancel_every p

let test_sim_schedule_every_rearms_before_body () =
  (* The body schedules work for its own instant; because the timer re-armed
     first, that work still runs before the next tick. *)
  let sim = Sim.create () in
  let log = ref [] in
  let p =
    Sim.schedule_every sim 10 (fun () ->
        log := `Tick (Sim.now sim) :: !log;
        ignore (Sim.schedule_after sim 0 (fun () -> log := `After (Sim.now sim) :: !log)))
  in
  Sim.run_until sim 20;
  Sim.cancel_every p;
  Alcotest.(check bool) "tick then same-instant work, twice" true
    (List.rev !log = [ `Tick 10; `After 10; `Tick 20; `After 20 ])

(* ---- Heap maintenance ----------------------------------------------- *)

let test_heap_filter_in_place () =
  let h = Heap.create ~cmp:compare in
  List.iter (Heap.push h) [ 9; 3; 7; 1; 8; 2; 6; 4; 5; 0 ];
  Heap.filter_in_place h ~keep:(fun x -> x mod 2 = 0);
  check_int "evens kept" 5 (Heap.size h);
  let rec drain acc =
    match Heap.pop h with Some x -> drain (x :: acc) | None -> List.rev acc
  in
  Alcotest.(check (list int)) "still a heap" [ 0; 2; 4; 6; 8 ] (drain [])

let prop_heap_filter_keeps_order =
  QCheck.Test.make ~name:"filter_in_place preserves heap order" ~count:200
    QCheck.(pair (list int) (int_bound 10))
    (fun (xs, k) ->
      let h = Heap.create ~cmp:compare in
      List.iter (Heap.push h) xs;
      let keep x = abs x mod 11 >= k in
      Heap.filter_in_place h ~keep;
      let rec drain acc =
        match Heap.pop h with Some x -> drain (x :: acc) | None -> List.rev acc
      in
      drain [] = List.sort compare (List.filter keep xs))

let prop_heap_model =
  (* Random interleaving of pushes and pops, checked against a sorted-list
     model of the same operations. *)
  QCheck.Test.make ~name:"heap matches a sorted-list model" ~count:200
    QCheck.(list (pair bool int))
    (fun ops ->
      let h = Heap.create ~cmp:compare in
      let model = ref [] in
      List.for_all
        (fun (is_push, x) ->
          if is_push then begin
            Heap.push h x;
            model := List.sort compare (x :: !model);
            Heap.size h = List.length !model
          end
          else
            match (Heap.pop h, !model) with
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

(* ---- Timing wheel --------------------------------------------------- *)

(* Walk one element through every layer of a tiny wheel (granule 16 ns,
   4 slots per level, 2 levels, span 256 ns): ready heap, level-0 slot,
   level-1 slot (cascades down on reach), overflow list (cascades back in
   when the wheel runs dry). *)
let test_wheel_cascade_boundaries () =
  let w =
    Wheel.create ~granularity_bits:4 ~wheel_bits:2 ~levels:2 ~dummy:0
      ~cmp:compare ~time:(fun x -> x) ()
  in
  check_int "granule" 16 (Wheel.granule w);
  check_int "level-0 span" 64 (Wheel.level_span w 0);
  check_int "wheel span" 256 (Wheel.wheel_span w);
  List.iter (Wheel.push w) [ 5; 20; 100; 1000 ];
  check_int "size" 4 (Wheel.size w);
  check_int "current granule sits in the ready heap" 1 (Wheel.ready_count w);
  check_int "beyond the top level overflows" 1 (Wheel.overflow_count w);
  check_int "pop 5" 5 (Option.get (Wheel.pop w));
  check_int "pop 20" 20 (Option.get (Wheel.pop w));
  check_int "cursor advanced to 20's granule" 16 (Wheel.cursor w);
  (* 100 lives in a level-1 slot: popping it forces a cascade to level 0 *)
  check_int "pop 100 (level-1 cascade)" 100 (Option.get (Wheel.pop w));
  check_int "cursor at 100's granule" 96 (Wheel.cursor w);
  (* the wheel is now dry: peeking cascades the overflow list back in *)
  check_int "peek 1000" 1000 (Option.get (Wheel.peek w));
  check_int "overflow rehomed" 0 (Wheel.overflow_count w);
  check_int "cursor jumped to 1000's granule floor" 992 (Wheel.cursor w);
  check_int "pop 1000" 1000 (Option.get (Wheel.pop w));
  check_bool "empty after" true (Wheel.is_empty w);
  (* granule-boundary placement: the last ns of the current granule is
     ready, the first ns of the next granule is not *)
  let c = Wheel.cursor w in
  Wheel.push w (c + 15);
  Wheel.push w (c + 16);
  check_int "below cursor+granule is ready" 1 (Wheel.ready_count w);
  Wheel.clear w;
  check_bool "clear empties" true (Wheel.is_empty w);
  check_int "clear rewinds the cursor" 0 (Wheel.cursor w);
  Alcotest.check_raises "negative time rejected"
    (Invalid_argument "Wheel.push: negative time") (fun () ->
      Wheel.push w (-1))

(* Heap and wheel must realise the exact same (time, seq) total order:
   interpret a random program of schedule/cancel/run_until ops against
   both backends and require identical fire sequences, firing clocks,
   observed pending counts, and final clocks. Far-future schedules (the
   [* 2_000_000] arm) push events past the wheel's 19.5 h horizon, so the
   overflow cascade is on the tested path. *)
let prop_backends_agree =
  QCheck.Test.make ~name:"heap and wheel realise the same schedule"
    ~count:100
    QCheck.(list (triple (int_bound 3) (int_bound 200_000_000) bool))
    (fun ops ->
      let trace backend =
        let sim = Sim.create ~backend () in
        let log = ref [] in
        let handles = ref [] in
        let k = ref 0 in
        List.iter
          (fun (op, dt, far) ->
            match op with
            | 0 | 3 ->
                incr k;
                let id = !k in
                let dt = if far && op = 0 then dt * 2_000_000 else dt in
                handles :=
                  Sim.schedule_after sim dt (fun () ->
                      log := (id, Sim.now sim) :: !log)
                  :: !handles
            | 1 -> (
                match !handles with
                | h :: rest when far ->
                    Sim.cancel sim h;
                    handles := rest
                | _ -> ())
            | _ ->
                Sim.run_until sim (Sim.now sim + dt);
                log := (-1, Sim.now sim) :: !log;
                log := (-2, Sim.pending sim) :: !log)
          ops;
        Sim.run sim;
        (List.rev !log, Sim.now sim, Sim.pending sim)
      in
      trace `Heap = trace `Wheel)

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

let qcheck = QCheck_alcotest.to_alcotest

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
    ("trace spans", `Quick, test_trace_spans);
    ("trace double open", `Quick, test_trace_double_open);
    ("trace close_all", `Quick, test_trace_close_all);
    ("trace overlaps", `Quick, test_trace_overlaps);
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
    ("wheel cascade boundaries", `Quick, test_wheel_cascade_boundaries);
    ("timeline energy_at", `Quick, test_timeline_energy_at);
    ("timeline compact", `Quick, test_timeline_compact);
    ("timeline retention", `Quick, test_timeline_retention);
    qcheck prop_heap_sorts;
    qcheck prop_heap_filter_keeps_order;
    qcheck prop_heap_model;
    qcheck prop_timeline_matches_naive;
    qcheck prop_rng_int_bounds;
    qcheck prop_rng_float_bounds;
    qcheck prop_timeline_integral_additive;
    qcheck prop_timeline_integral_nonneg;
    qcheck prop_stats_mean_bounds;
    qcheck prop_backends_agree;
    qcheck prop_pooling_invisible;
    qcheck prop_trace_retention;
  ]
