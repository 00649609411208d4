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

(* The runqueue against a reference: the persistent [Set] of
   [(vruntime, eid, entity)] tuples that the array queue replaced, with
   the same operations written over it. Both are keyed at enqueue and
   look an entity up by its current vruntime, so a vruntime changed while
   queued strands the old entry in both. Here [place_woken] and
   [place_new] raise a queued vruntime, and a shift moves it either way,
   as a balloon's loan settlement moves a queued group entity. *)
module Ref = struct
  module ESet = Set.Make (struct
    type t = float * int * Entity.t

    let compare (v1, id1, _) (v2, id2, _) =
      let c = compare v1 v2 in
      if c <> 0 then c else compare id1 id2
  end)

  type t = {
    mutable set : ESet.t;
    mutable running : Entity.t option;
    mutable min_vrt : float;
  }

  let create () = { set = ESet.empty; running = None; min_vrt = 0.0 }
  let key e = (e.Entity.vruntime, e.Entity.eid, e)

  let enqueue rq e =
    if not e.Entity.on_rq then begin
      e.Entity.on_rq <- true;
      rq.set <- ESet.add (key e) rq.set
    end

  let dequeue rq e =
    if e.Entity.on_rq then begin
      e.Entity.on_rq <- false;
      rq.set <- ESet.remove (key e) rq.set
    end

  let queued rq = List.map (fun (_, _, e) -> e) (ESet.elements rq.set)

  let leftmost rq =
    match ESet.min_elt_opt rq.set with Some (_, _, e) -> Some e | None -> None

  let first_other rq e =
    List.find_opt (fun e' -> e'.Entity.eid <> e.Entity.eid) (queued rq)

  let find_first rq p = List.find_opt p (queued rq)
  let dequeue_if rq p = List.iter (fun e -> if p e then dequeue rq e) (queued rq)

  let update_min_vruntime rq =
    let candidates =
      (match rq.running with Some e -> [ e.Entity.vruntime ] | None -> [])
      @ match ESet.min_elt_opt rq.set with Some (v, _, _) -> [ v ] | None -> []
    in
    match candidates with
    | [] -> ()
    | vs ->
        rq.min_vrt <-
          Float.max rq.min_vrt (List.fold_left Float.min Float.infinity vs)

  let place_new rq e =
    e.Entity.vruntime <- Float.max e.Entity.vruntime rq.min_vrt

  (* Cfs's wakeup bonus: 1 ms of vruntime *)
  let place_woken rq e =
    e.Entity.vruntime <- Float.max e.Entity.vruntime (rq.min_vrt -. 1_000_000.0)

  let charge rq e span =
    let delta = float_of_int span *. Cfs.nice0_weight /. e.Entity.weight in
    e.Entity.vruntime <- e.Entity.vruntime +. delta;
    (match e.Entity.kind with
    | Entity.ETask t -> t.Task.vruntime <- e.Entity.vruntime
    | Entity.EGroup _ -> ());
    update_min_vruntime rq
end

(* Eight task entities per side, with the same eids, weights, apps and
   starting vruntimes on both. Vruntimes start on a coarse grid and spans
   are whole microseconds, so keys tie often and the eid decides. *)
let twin_entities () =
  List.init 8 (fun i ->
      let mk () =
        let t = task ~app:(i mod 3) ~weight:(if i mod 4 = 3 then 2048.0 else 1024.0) "t" in
        {
          Entity.eid = i + 1;
          kind = Entity.ETask t;
          weight = t.Task.weight;
          vruntime = float_of_int (i mod 3) *. 1e6;
          on_rq = false;
        }
      in
      (mk (), mk ()))
  |> Array.of_list

let eid_of = function Some e -> e.Entity.eid | None -> 0
let eid_or_none e = if Entity.is_none e then 0 else e.Entity.eid
let even_app e = Entity.app_of e mod 2 = 0

let prop_runqueue_matches_set =
  QCheck.Test.make ~name:"runqueue agrees with the Set reference" ~count:300
    QCheck.(
      list_of_size Gen.(1 -- 80)
        (triple (int_bound 7) (int_bound 7) (int_bound 3000)))
    (fun script ->
      let es = twin_entities () in
      let rq = Cfs.create () and rf = Ref.create () in
      let agree () =
        Array.for_all
          (fun (a, b) ->
            Int64.equal
              (Int64.bits_of_float a.Entity.vruntime)
              (Int64.bits_of_float b.Entity.vruntime)
            && a.Entity.on_rq = b.Entity.on_rq)
          es
        && eid_of (Cfs.leftmost rq) = eid_of (Ref.leftmost rf)
        && Array.for_all
             (fun (a, b) ->
               (not a.Entity.on_rq)
               || eid_or_none (Cfs.first_other rq a) = eid_of (Ref.first_other rf b))
             es
        && eid_or_none (Cfs.find_first rq even_app)
           = eid_of (Ref.find_first rf even_app)
        && Cfs.n_queued rq = Ref.ESet.cardinal rf.Ref.set
        && Int64.equal
             (Int64.bits_of_float (Cfs.min_vruntime rq))
             (Int64.bits_of_float rf.Ref.min_vrt)
      in
      List.for_all
        (fun (op, i, x) ->
          let a, b = es.(i) in
          (match op with
          | 0 | 1 ->
              Cfs.enqueue rq a;
              Ref.enqueue rf b
          | 2 ->
              Cfs.dequeue rq a;
              Ref.dequeue rf b
          | 3 ->
              let of_app e = Entity.app_of e = x mod 3 in
              Cfs.dequeue_if rq of_app;
              Ref.dequeue_if rf of_app
          | 4 ->
              (* only an entity off the queue runs and is charged *)
              if not a.Entity.on_rq then begin
                Cfs.set_curr rq (Some a);
                Cfs.charge rq a (x * 1000);
                Ref.(rf.running <- Some b);
                Ref.charge rf b (x * 1000)
              end
          | 5 ->
              Cfs.place_woken rq a;
              Ref.place_woken rf b
          | 6 ->
              Cfs.place_new rq a;
              Ref.place_new rf b
          | _ ->
              let shift = float_of_int ((x - 1500) * 1000) in
              a.Entity.vruntime <- a.Entity.vruntime +. shift;
              b.Entity.vruntime <- b.Entity.vruntime +. shift);
          agree ())
        script)

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
    QCheck_alcotest.to_alcotest prop_runqueue_matches_set;
  ]
