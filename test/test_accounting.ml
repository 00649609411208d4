(* Tests for the prior-art accounting heuristics. *)
open Psbox_engine
module Usage = Psbox_accounting.Usage
module Split = Psbox_accounting.Split

let check_float e = Alcotest.(check (float e))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let span app start stop share = { Usage.app; start; stop; share }

let flat_tl w =
  let tl = Timeline.create ~initial:w () in
  tl

let test_segments_sweep () =
  let usages = [ span 1 0 100 0.5; span 2 50 150 0.5 ] in
  let segs = Usage.segments usages ~from:0 ~until:200 in
  check_int "four segments" 4 (List.length segs);
  let s2 = List.nth segs 1 in
  check_int "overlap start" 50 s2.Usage.t0;
  check_int "overlap end" 100 s2.Usage.t1;
  check_int "two sharers" 2 (List.length s2.Usage.shares);
  let s4 = List.nth segs 3 in
  Alcotest.(check (list (pair int (float 0.0)))) "gap empty" [] s4.Usage.shares

let test_segments_clipping () =
  let usages = [ span 1 (-50) 1000 1.0 ] in
  let segs = Usage.segments usages ~from:0 ~until:100 in
  check_int "one segment" 1 (List.length segs);
  let s = List.hd segs in
  check_int "clipped start" 0 s.Usage.t0;
  check_int "clipped end" 100 s.Usage.t1

let test_usage_split_proportional () =
  (* 10 W rail; app1 uses 2x the share of app2 over the same interval *)
  let tl = flat_tl 10.0 in
  let usages = [ span 1 0 Time.(sec 1) 0.5; span 2 0 Time.(sec 1) 0.25 ] in
  let r = Split.usage_split tl usages ~from:0 ~until:(Time.sec 1) in
  check_float 1e-9 "app1 gets 2/3" (10.0 *. 2.0 /. 3.0) (List.assoc 1 r);
  check_float 1e-9 "app2 gets 1/3" (10.0 /. 3.0) (List.assoc 2 r);
  check_float 1e-9 "conserves busy energy" 10.0 (Split.total_attributed r)

let test_usage_split_ignores_idle () =
  let tl = flat_tl 10.0 in
  let usages = [ span 1 0 (Time.ms 500) 1.0 ] in
  let r = Split.usage_split tl usages ~from:0 ~until:(Time.sec 1) in
  check_float 1e-9 "only the busy half attributed" 5.0 (Split.total_attributed r)

let test_even_split () =
  let tl = flat_tl 6.0 in
  let usages = [ span 1 0 Time.(sec 1) 0.9; span 2 0 Time.(sec 1) 0.1 ] in
  let r = Split.even_split tl usages ~from:0 ~until:(Time.sec 1) in
  check_float 1e-9 "even regardless of share" 3.0 (List.assoc 1 r);
  check_float 1e-9 "even regardless of share (2)" 3.0 (List.assoc 2 r)

let test_last_entity_tail () =
  let tl = flat_tl 2.0 in
  (* app1 active 0..0.5s, then nobody: the tail goes to app1 *)
  let usages = [ span 1 0 (Time.ms 500) 1.0 ] in
  let r = Split.last_entity tl usages ~from:0 ~until:(Time.sec 1) in
  check_float 1e-9 "app1 charged busy + tail" 2.0 (List.assoc 1 r)

let test_last_entity_handoff () =
  let tl = flat_tl 2.0 in
  let usages = [ span 1 0 (Time.ms 200) 1.0; span 2 (Time.ms 600) (Time.ms 800) 1.0 ] in
  let r = Split.last_entity tl usages ~from:0 ~until:(Time.sec 1) in
  (* app1: 0..200 busy + 200..600 tail = 1.2 J; app2: 600..800 + 800..1000 = 0.8 J *)
  check_float 1e-9 "app1" 1.2 (List.assoc 1 r);
  check_float 1e-9 "app2" 0.8 (List.assoc 2 r)

let test_shared_baseline () =
  let tl = flat_tl 5.0 in
  let usages = [ span 1 0 Time.(sec 1) 0.75; span 2 0 Time.(sec 1) 0.25 ] in
  let r = Split.shared_baseline tl ~idle_w:1.0 usages ~from:0 ~until:(Time.sec 1) in
  (* baseline 1 J split evenly (0.5 each); dynamic 4 J split 3:1 *)
  check_float 1e-9 "app1" 3.5 (List.assoc 1 r);
  check_float 1e-9 "app2" 1.5 (List.assoc 2 r)

let test_windowed_by_count () =
  let tl = flat_tl 4.0 in
  (* within one 100 ms window, app1 issues 3 requests, app2 one *)
  let usages =
    [
      span 1 0 (Time.ms 10) 1.0;
      span 1 (Time.ms 20) (Time.ms 30) 1.0;
      span 1 (Time.ms 40) (Time.ms 50) 1.0;
      span 2 (Time.ms 60) (Time.ms 70) 1.0;
    ]
  in
  let r = Split.windowed_by_count tl usages ~from:0 ~until:(Time.ms 100) in
  check_float 1e-9 "3/4 by count" 0.3 (List.assoc 1 r);
  check_float 1e-9 "1/4 by count" 0.1 (List.assoc 2 r)

let prop_attribution_bounded =
  QCheck.Test.make ~name:"usage_split never attributes more than rail energy"
    ~count:200
    QCheck.(
      list
        (quad (int_bound 3) (int_bound 1000) (int_bound 1000)
           (float_range 0.05 1.0)))
    (fun raw ->
      let usages =
        List.map
          (fun (app, start, len, share) ->
            span (app + 1) start (start + len + 1) share)
          raw
      in
      let tl = flat_tl 3.0 in
      let hi = 3000 in
      let total_rail = Timeline.integrate tl 0 hi in
      let check f =
        Split.total_attributed (f tl usages ~from:0 ~until:hi)
        <= total_rail +. 1e-9
      in
      check Split.usage_split && check Split.even_split
      && check Split.last_entity
      && check (Split.windowed_by_count ?window:None))

(* The live splitter against the offline [usage_split] over the same rail
   timeline, the reference it is held to. A script interleaves power
   changes with share changes of up to four apps, some at the same
   instant; each app's share is piecewise constant, fed to the live
   splitter as it changes and to the offline split as one usage span per
   constant piece. *)
type live_step = Power of float | Share of int * float

let live_matches_offline (steps, tail_ms) =
  let sim = Sim.create () in
  let rail = Psbox_hw.Power_rail.create sim ~name:"dev" ~idle_w:1.0 in
  let lv = Split.live rail ~from:0 in
  let share = Array.make 5 0.0 and since = Array.make 5 0 in
  let pieces = ref [] in
  let close app now =
    if share.(app) > 0.0 then
      pieces := span app since.(app) now share.(app) :: !pieces
  in
  List.iter
    (fun (gap_ms, step) ->
      Sim.run_until sim (Sim.now sim + Time.ms gap_ms);
      let now = Sim.now sim in
      match step with
      | Power w -> Psbox_hw.Power_rail.set_power rail w
      | Share (app, s) ->
          Split.live_set_share lv ~at:now ~app s;
          close app now;
          share.(app) <- s;
          since.(app) <- now)
    steps;
  let until = Sim.now sim + Time.ms tail_ms in
  for app = 1 to 4 do
    close app until
  done;
  let offline =
    Split.usage_split
      (Psbox_hw.Power_rail.timeline rail)
      (List.rev !pieces) ~from:0 ~until
  in
  let online = Split.live_read lv ~until in
  Split.live_detach lv;
  let close_rel e e' =
    Float.abs (e -. e') <= 1e-9 *. Float.max (Float.abs e) (Float.abs e')
  in
  List.length offline = List.length online
  && List.for_all2
       (fun (a, e) (a', e') -> a = a' && close_rel e e')
       offline online

let print_live_script (steps, tail_ms) =
  String.concat "; "
    (List.map
       (fun (gap_ms, step) ->
         match step with
         | Power w -> Printf.sprintf "+%dms power %g" gap_ms w
         | Share (app, s) -> Printf.sprintf "+%dms app%d share %g" gap_ms app s)
       steps)
  ^ Printf.sprintf "; +%dms end" tail_ms

let gen_live_script =
  QCheck.Gen.(
    pair
      (list_size (1 -- 40)
         (pair
            (frequency [ (1, return 0); (3, 1 -- 500) ])
            (frequency
               [
                 (1, map (fun k -> Power (float_of_int k /. 4.0)) (0 -- 16));
                 ( 2,
                   map2
                     (fun app s -> Share (app, s))
                     (1 -- 4)
                     (frequency [ (1, return 0.0); (3, float_range 0.05 2.0) ])
                 );
               ])))
      (1 -- 500))

let prop_live_matches_offline =
  QCheck.Test.make ~name:"live split matches offline" ~count:200
    (QCheck.make ~print:print_live_script gen_live_script)
    live_matches_offline

(* One fixed case, always run: two apps overlapping across two power
   changes, with an idle first second attributed to nobody. *)
let test_live_split_matches_offline () =
  Alcotest.(check bool)
    "fixed two-app script" true
    (live_matches_offline
       ( [
           (1000, Share (1, 0.5));
           (500, Power 3.0);
           (500, Share (2, 1.0));
           (500, Power 2.0);
           (500, Share (1, 0.0));
           (1000, Share (2, 0.0));
         ],
         1000 ));
  match QCheck.Test.check_exn prop_live_matches_offline with
  | () -> ()
  | exception QCheck.Test.Test_fail (name, msgs) ->
      Alcotest.failf "%s: %s" name (String.concat "; " msgs)

let suite =
  [
    ("segments sweep", `Quick, test_segments_sweep);
    ("segments clipping", `Quick, test_segments_clipping);
    ("usage split proportional", `Quick, test_usage_split_proportional);
    ("usage split ignores idle", `Quick, test_usage_split_ignores_idle);
    ("even split", `Quick, test_even_split);
    ("last entity gets the tail", `Quick, test_last_entity_tail);
    ("last entity handoff", `Quick, test_last_entity_handoff);
    ("shared baseline", `Quick, test_shared_baseline);
    ("windowed by count", `Quick, test_windowed_by_count);
    ("live split matches offline", `Quick, test_live_split_matches_offline);
    QCheck_alcotest.to_alcotest prop_attribution_bounded;
  ]
