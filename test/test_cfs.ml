(* Tests for the CFS runqueue and scheduling entities. *)
open Psbox_kernel

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let task ?(app = 1) ?(weight = 1024.0) name =
  Task.create ~app ~name ~weight ~program:(fun () -> Task.Exit) ()

let test_enqueue_pick_order () =
  let rq = Cfs.create () in
  let e1 = Entity.of_task (task "a") in
  let e2 = Entity.of_task (task "b") in
  e1.Entity.vruntime <- 100.0;
  e2.Entity.vruntime <- 50.0;
  Cfs.enqueue rq e1;
  Cfs.enqueue rq e2;
  check_int "leftmost is min vruntime" e2.Entity.eid
    (Option.get (Cfs.leftmost rq)).Entity.eid;
  Cfs.dequeue rq e2;
  check_int "then the next" e1.Entity.eid
    (Option.get (Cfs.leftmost rq)).Entity.eid

let test_enqueue_idempotent () =
  let rq = Cfs.create () in
  let e = Entity.of_task (task "a") in
  Cfs.enqueue rq e;
  Cfs.enqueue rq e;
  check_int "once" 1 (Cfs.n_queued rq);
  Cfs.dequeue rq e;
  Cfs.dequeue rq e;
  check_int "zero" 0 (Cfs.n_queued rq)

let test_charge_advances_vruntime () =
  let rq = Cfs.create () in
  let t = task "a" in
  let e = Entity.of_task t in
  Cfs.set_curr rq (Some e);
  Cfs.charge rq e 1_000_000;
  check_float "vruntime advanced by wall time at nice0" 1_000_000.0
    e.Entity.vruntime;
  check_float "task mirror" 1_000_000.0 t.Task.vruntime

let test_charge_weighted () =
  let rq = Cfs.create () in
  let t = task ~weight:2048.0 "heavy" in
  let e = Entity.of_task t in
  Cfs.set_curr rq (Some e);
  Cfs.charge rq e 1_000_000;
  check_float "half rate for double weight" 500_000.0 e.Entity.vruntime

let test_min_vruntime_monotonic () =
  let rq = Cfs.create () in
  let e = Entity.of_task (task "a") in
  e.Entity.vruntime <- 500.0;
  Cfs.enqueue rq e;
  Cfs.update_min_vruntime rq;
  let m1 = Cfs.min_vruntime rq in
  Cfs.dequeue rq e;
  let e2 = Entity.of_task (task "b") in
  e2.Entity.vruntime <- 100.0;
  Cfs.enqueue rq e2;
  Cfs.update_min_vruntime rq;
  check_bool "never decreases" true (Cfs.min_vruntime rq >= m1)

let test_place_new_and_woken () =
  let rq = Cfs.create () in
  let e0 = Entity.of_task (task "runner") in
  e0.Entity.vruntime <- 10_000_000.0;
  Cfs.enqueue rq e0;
  Cfs.update_min_vruntime rq;
  let fresh = Entity.of_task (task "fresh") in
  Cfs.place_new rq fresh;
  check_bool "fresh gets no bank" true (fresh.Entity.vruntime >= 10_000_000.0);
  let sleeper = Entity.of_task (task "sleeper") in
  sleeper.Entity.vruntime <- 0.0;
  Cfs.place_woken rq sleeper;
  check_bool "woken pulled near min" true
    (sleeper.Entity.vruntime >= 10_000_000.0 -. 1_000_000.0 -. 1.0);
  let ahead = Entity.of_task (task "ahead") in
  ahead.Entity.vruntime <- 99_000_000.0;
  Cfs.place_woken rq ahead;
  check_float "debtor keeps debt" 99_000_000.0 ahead.Entity.vruntime

let test_group_entity_pick () =
  let ge = Entity.group ~psbox_id:7 ~core:0 in
  let g = match ge.Entity.kind with Entity.EGroup g -> g | _ -> assert false in
  let t1 = task "t1" and t2 = task "t2" in
  t1.Task.vruntime <- 10.0;
  t2.Task.vruntime <- 5.0;
  g.Entity.gtasks <- [ t1; t2 ];
  check_int "picks min-vruntime member" t2.Task.tid
    (Option.get (Entity.group_pick g)).Task.tid;
  t2.Task.state <- Task.Blocked;
  check_int "skips blocked member" t1.Task.tid
    (Option.get (Entity.group_pick g)).Task.tid;
  t1.Task.state <- Task.Blocked;
  check_bool "no runnable member" true (Entity.group_pick g = None);
  check_bool "group not runnable" false (Entity.runnable ge)

let test_entity_app_of () =
  let e1 = Entity.of_task (task ~app:3 "t") in
  check_int "task app" 3 (Entity.app_of e1);
  let e2 = Entity.group ~psbox_id:9 ~core:1 in
  check_int "group app" 9 (Entity.app_of e2);
  check_bool "is_group" true (Entity.is_group e2);
  check_bool "task not group" false (Entity.is_group e1)

let test_charge_rejects_queued () =
  let rq = Cfs.create () in
  let e = Entity.of_task (task "a") in
  Cfs.enqueue rq e;
  Alcotest.check_raises "queued"
    (Invalid_argument "Cfs.charge: the entity is queued") (fun () ->
      Cfs.charge rq e 1_000_000);
  check_float "vruntime untouched" 0.0 e.Entity.vruntime

let suite =
  [
    ("pick order by vruntime", `Quick, test_enqueue_pick_order);
    ("enqueue idempotent", `Quick, test_enqueue_idempotent);
    ("charge advances vruntime", `Quick, test_charge_advances_vruntime);
    ("charge respects weight", `Quick, test_charge_weighted);
    ("min_vruntime monotonic", `Quick, test_min_vruntime_monotonic);
    ("wake/new placement", `Quick, test_place_new_and_woken);
    ("group entity pick", `Quick, test_group_entity_pick);
    ("entity app_of/is_group", `Quick, test_entity_app_of);
    ("charge rejects a queued entity", `Quick, test_charge_rejects_queued);
  ]
