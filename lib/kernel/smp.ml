open Psbox_engine
module Tm = Psbox_telemetry.Metrics
module Tt = Psbox_telemetry.Tracing

(* Telemetry track/lane naming: each per-core scheduling timeline is a lane
   of the "kernel.cfs" track; span names are the paper's app identities. *)
let cfs_track = "kernel.cfs"

let app_label = function
  | -1 -> "idle"
  | -2 -> "forced-idle"
  | a -> "app" ^ string_of_int a

(* Minimum preemption granularity: a running task is never preempted on
   credit grounds sooner than this after dispatch. *)
let tick = Time.ms 1

(* vruntime headroom before wake preemption *)
let wakeup_granularity = 1e6

(* shootdown propagation *)
let ipi_delay = Time.us 5

(* A single coscheduling period ends once any core's loan exceeds this
   much vruntime (20 ms): a balloon whose entity keeps the best credit on
   one core must still not starve waiters on the others. *)
let max_loan = 2e7

(* Hard bound on one coscheduling period; re-entry is immediate if the
   balloon still holds the best credit, so this only bounds how stale the
   loan bookkeeping can get. *)
let max_period = Time.ms 20

(* CFS-bandwidth style refill period for per-app CPU quotas; a throttled
   app stays off the runqueues until the next refill. *)
let quota_period = Time.ms 10

type quota_state = {
  mutable q_limit : float; (* core-seconds of runtime per second, >= 0 *)
  mutable q_used : Time.span; (* runtime consumed in the current period *)
  mutable q_throttled : bool;
  mutable q_event : Sim.handle; (* analytic quota-crossing wakeup *)
  q_fire : unit -> unit; (* the quota-crossing body, built once *)
}

type balloon = {
  b_app : int;
  b_entities : Entity.t array;
  mutable b_live : bool;
  mutable b_period : int;
      (* numbers the coscheduling periods; a join IPI carries the number
         of the period that sent it, so one that lands after its period
         ended cannot count toward the next *)
  mutable b_started : Time.t;
  mutable b_joined : int;
  mutable b_metering : bool;
  mutable b_intervals : (Time.t * Time.t) list; (* newest first *)
  b_on_start : unit -> unit;
  b_on_stop : Time.t -> unit;
  mutable b_total_loan : float;
}

type t = {
  sim : Sim.t;
  cpu : Psbox_hw.Cpu.t;
  confine_cost : bool;
      (* the paper's key design: bill balloon-forced idle to the sandboxed
         app and settle scheduling loans. Off only for the ablation, which
         shows unsandboxed apps losing their share without it. *)
  rqs : Cfs.t array;
  curr_started : Time.t array;
  dispatched : Time.t array;
      (* when the core's current entity won the CPU (unlike [curr_started]
         this does not advance on accounting updates); dispatched + tick is
         the minimum quantum before a planned preemption/rotation, which is
         the role the tick grid played in the polling scheduler *)
  work_events : Sim.handle array;
  plan_events : Sim.handle array;
      (* per-core demand wakeup: the analytically-computed next interesting
         instant (vruntime crossing / idle pickup / balloon inner rotation)
         replaces the seed's blind per-core 1 ms tick *)
  mutable balloon_event : Sim.handle;
      (* single machine-wide wakeup at the live balloon's next boundary:
         min(max_period expiry, earliest loan-cap crossing, the instant the
         balloon loses the credit race on its last winning core) *)
  (* the bodies of those events, built once per core and per machine *)
  work_fns : (unit -> unit) array;
  plan_fns : (unit -> unit) array;
  mutable balloon_fn : unit -> unit;
  span_tag : int array; (* app code of the open span per core, or [no_span] *)
  span_start : Time.t array; (* when each core's open span began *)
  span_opened : int array;
      (* opening order of each core's open span, from [spans_opened]:
         [stop] closes the open spans most recent first, the order the
         tie rule of [sched_spans] was defined by *)
  mutable spans_opened : int;
  mutable entities : Entity.t array;
      (* task slot -> its entity while unsandboxed, else [Entity.none] *)
  mutable wakers : (unit -> unit) array;
      (* task slot -> the body of its sleep's wakeup, built at spawn *)
  mutable slots : int; (* slots handed out, one per spawned task *)
  mutable apps : Task.t list array; (* app -> its tasks, newest first *)
  mutable balloon_of : balloon option array; (* app -> its balloon *)
  mutable balloons : int; (* sandboxed apps *)
  mutable live : balloon option;
  spans : (int * int) Trace.span Trace.events; (* completed, stamped at stop *)
  latencies : (int * float) Trace.events; (* (app, wake-to-run us) *)
  mutable stopped : bool;
  share_bus : Temporal_sched.share_change Bus.t;
  share : Temporal_sched.share_change; (* the one record [share_bus] carries *)
  mutable share_counts : int array; (* app -> cores currently running it *)
  mutable quota_of : quota_state option array;
      (* app -> its quota; refills re-plan, and so schedule events, in app
         order *)
  mutable refill : Sim.timer option;
      (* the refill boundaries' grid, anchored by the first quota ever set
         so demand-armed refills land on the same instants a periodic
         timer would have *)
  (* telemetry handles, resolved once at create; lanes precomputed so the
     tracing hot path allocates nothing when recording is off *)
  tm_switch : Tm.counter;
  tm_core_switch : Tm.counter array;
  tm_throttles : Tm.counter;
  tm_unthrottles : Tm.counter;
  tm_wake_lat : Tm.histogram;
  tm_lanes : string array;
  (* fire counters of the demand wakeups and the quota refill, bumped by
     hand: preempt and rotate are told apart inside the handler, and each
     counter is registered in every machine's store, whose zero rows the
     fleet reports print (a timer label is interned once per process) *)
  tm_ev_preempt : Tm.counter;
  tm_ev_rotate : Tm.counter;
  tm_ev_balloon : Tm.counter;
  tm_ev_quota : Tm.counter;
  tm_ev_refill : Tm.counter;
}

(* A core with no open scheduling span. *)
let no_span = min_int

(* The machine without its event bodies: [create] builds those once the
   handlers are defined. *)
let make sim cpu ~confine_cost =
  let n = Psbox_hw.Cpu.cores cpu in
  let retention =
    Timeline.retention (Psbox_hw.Power_rail.timeline (Psbox_hw.Cpu.rail cpu))
  in
  {
    sim;
    cpu;
    confine_cost;
    rqs = Array.init n (fun _ -> Cfs.create ());
    curr_started = Array.make n Time.zero;
    dispatched = Array.make n Time.zero;
    work_events = Array.make n Sim.none;
    plan_events = Array.make n Sim.none;
    balloon_event = Sim.none;
    work_fns = Array.make n ignore;
    plan_fns = Array.make n ignore;
    balloon_fn = ignore;
    span_tag = Array.make n no_span;
    span_start = Array.make n Time.zero;
    span_opened = Array.make n 0;
    spans_opened = 0;
    entities = [||];
    wakers = [||];
    slots = 0;
    apps = [||];
    balloon_of = [||];
    balloons = 0;
    live = None;
    spans = Trace.events ?retention ();
    latencies = Trace.events ?retention ();
    stopped = false;
    share_bus = Bus.create ();
    share = { Temporal_sched.at = Time.zero; app = 0; share = 0 };
    share_counts = [||];
    quota_of = [||];
    refill = None;
    tm_switch = Tm.counter "smp.ctx_switches";
    tm_core_switch =
      Array.init n (fun core ->
          Tm.counter (Printf.sprintf "smp.core%d.ctx_switches" core));
    tm_throttles = Tm.counter "smp.throttles";
    tm_unthrottles = Tm.counter "smp.unthrottles";
    tm_wake_lat =
      Tm.histogram "smp.wakeup_latency_us"
        ~edges:[| 1.; 10.; 100.; 1_000.; 10_000. |];
    tm_lanes = Array.init n (Printf.sprintf "core%d");
    tm_ev_preempt = Tm.counter "sim.events.smp.preempt";
    tm_ev_rotate = Tm.counter "sim.events.smp.rotate";
    tm_ev_balloon = Tm.counter "sim.events.smp.balloon_boundary";
    tm_ev_quota = Tm.counter "sim.events.smp.quota_enforce";
    tm_ev_refill = Tm.counter "sim.events.smp.quota_refill";
  }

let cpu smp = smp.cpu
let cores smp = Array.length smp.rqs

(* The app-indexed arrays grow on demand; app ids are small and dense. *)
let grown a app fill =
  let b = Array.make (max 8 (2 * app)) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let app_tasks smp ~app =
  if app >= 0 && app < Array.length smp.apps then smp.apps.(app) else []

let find_quota smp app =
  if app >= 0 && app < Array.length smp.quota_of then smp.quota_of.(app)
  else None

(* Walk the quotas in app order. [quota_of] never shrinks, so the walk
   stays in bounds whatever the callback does to the quotas. *)
let iter_quotas smp f =
  for app = 0 to Array.length smp.quota_of - 1 do
    match smp.quota_of.(app) with Some q -> f app q | None -> ()
  done

(* By start, then stop; of two spans with equal bounds, the one completed
   later comes first (a stable sort of the newest-first list). *)
let sched_spans smp =
  let by_bounds (a : _ Trace.span) (b : _ Trace.span) =
    let c = Int.compare a.start b.start in
    if c <> 0 then c else Int.compare a.stop b.stop
  in
  List.stable_sort by_bounds (List.rev (Trace.values smp.spans))

let wakeup_latencies_us smp =
  Array.of_list (List.map snd (Trace.values smp.latencies))

let wakeup_latencies_of smp ~app =
  Trace.values smp.latencies
  |> List.filter_map (fun (a, l) -> if a = app then Some l else None)
  |> Array.of_list

let balloon_of_app smp app =
  if app >= 0 && app < Array.length smp.balloon_of then smp.balloon_of.(app)
  else None

let sandboxed smp app = Option.is_some (balloon_of_app smp app)

(* The task actually executing inside an entity, or [Task.none]. *)
let running_task_of e =
  match e.Entity.kind with
  | Entity.ETask t -> if t.Task.state = Task.Running then t else Task.none
  | Entity.EGroup g -> (
      match g.Entity.gcurr with Some t -> t | None -> Task.none)

let running_app smp ~core =
  match Cfs.curr smp.rqs.(core) with
  | None -> -1
  | Some e -> (running_task_of e).Task.app

(* ------------------------------------------------------------------ *)
(* Scheduling spans                                                     *)

let share_bus smp = smp.share_bus

(* Forward hook into the quota planner (defined at the end of the module):
   an app's running-core count is the rate at which its quota drains, so
   every share change must re-aim the app's quota-crossing wakeup. *)
let quota_share_hook : (t -> int -> unit) ref = ref (fun _ _ -> ())

let shares_of smp app =
  if app < Array.length smp.share_counts then smp.share_counts.(app) else 0

(* Running-core counts feed the share bus (live attribution): the idle
   tags (-1 / -2) never count, so a balloon-forced-idle core contributes
   no CPU share. Publishing is near-free when nothing subscribes. *)
let note_share smp app delta =
  if app >= 0 then begin
    if app >= Array.length smp.share_counts then
      smp.share_counts <- grown smp.share_counts app 0;
    let nw = smp.share_counts.(app) + delta in
    smp.share_counts.(app) <- nw;
    let c = smp.share in
    c.Temporal_sched.at <- Sim.now smp.sim;
    c.app <- app;
    c.share <- nw;
    Bus.publish smp.share_bus c;
    if app < Array.length smp.quota_of && Option.is_some smp.quota_of.(app)
    then !quota_share_hook smp app
  end

let complete_span smp core app now =
  Trace.emit smp.spans now
    { Trace.start = smp.span_start.(core); stop = now; tag = (core, app) }

(* Switch a core's open span to [tag] ([no_span] closes it). *)
let set_span smp core tag =
  let now = Sim.now smp.sim in
  let old = smp.span_tag.(core) in
  if not (old = tag && tag <> no_span) then begin
    if old <> no_span then begin
      if Tt.recording_in (Sim.tracer smp.sim) then
        Tt.span ~track:cfs_track ~lane:smp.tm_lanes.(core)
          ~name:(app_label old) ~start:smp.span_start.(core) ~stop:now ();
      complete_span smp core old now;
      note_share smp old (-1)
    end;
    if tag <> no_span then begin
      smp.span_start.(core) <- now;
      smp.span_opened.(core) <- smp.spans_opened;
      smp.spans_opened <- smp.spans_opened + 1;
      note_share smp tag 1
    end;
    let store = Sim.metrics smp.sim in
    Tm.incr_in store smp.tm_switch;
    Tm.incr_in store smp.tm_core_switch.(core);
    smp.span_tag.(core) <- tag
  end

(* ------------------------------------------------------------------ *)
(* Core scheduling machinery                                           *)

(* Physical identity between the rq's current entity and [e]. *)
let curr_is rq e =
  match Cfs.curr rq with Some c -> c == e | None -> false

let cancel_work smp core =
  Sim.cancel smp.sim smp.work_events.(core);
  smp.work_events.(core) <- Sim.none

(* Per-app CPU quota (CFS-bandwidth style). Only plain task entities are
   throttled: balloon groups answer to the psbox coscheduling machinery,
   not to the budget controller. *)
let throttled_app smp app =
  match find_quota smp app with Some q -> q.q_throttled | None -> false

let entity_throttled smp e =
  match e.Entity.kind with
  | Entity.ETask t -> throttled_app smp t.Task.app
  | Entity.EGroup _ -> false

(* Whether a core's current entity accrues vruntime while it holds the
   CPU: a balloon group with no runnable member (forced idle) is charged
   only when confinement bills it. *)
let accrues smp e =
  match e.Entity.kind with
  | Entity.EGroup g -> smp.confine_cost || Option.is_some g.Entity.gcurr
  | Entity.ETask _ -> true

let update_curr smp core =
  let rq = smp.rqs.(core) in
  match Cfs.curr rq with
  | None -> ()
  | Some e ->
      let now = Sim.now smp.sim in
      let delta = now - smp.curr_started.(core) in
      if delta > 0 then begin
        if accrues smp e then Cfs.charge rq e delta;
        let t = running_task_of e in
        if not (Task.is_none t) then begin
          t.Task.remaining <- t.Task.remaining - delta;
          match find_quota smp t.Task.app with
          | Some q -> q.q_used <- q.q_used + delta
          | None -> ()
        end;
        smp.curr_started.(core) <- now
      end

(* ------------------------------------------------------------------ *)
(* Demand-driven wakeup planning                                        *)

(* Analytic plans aim a wakeup at a vruntime crossing computed in floats;
   anything projected further out than this horizon is re-checked at the
   horizon instead (the fire handler verifies against live state and
   re-arms, so a clamped plan is never wrong, only re-derived). *)
let plan_horizon = Time.sec 60

let cancel_plan smp core =
  Sim.cancel smp.sim smp.plan_events.(core);
  smp.plan_events.(core) <- Sim.none

let cancel_balloon_event smp =
  Sim.cancel smp.sim smp.balloon_event;
  smp.balloon_event <- Sim.none

(* Projected vruntime of the core's current entity at the present instant,
   without touching the accounting ([update_curr] materialises the same
   quantity when the wakeup actually fires). *)
let curr_vruntime_now smp core e =
  let delta = Sim.now smp.sim - smp.curr_started.(core) in
  if delta <= 0 || not (accrues smp e) then e.Entity.vruntime
  else
    e.Entity.vruntime
    +. (float_of_int delta *. Cfs.nice0_weight /. e.Entity.weight)

(* Nanoseconds until a charged entity's vruntime grows by [dv], clamped to
   the planning horizon. *)
let ns_until_dv ~weight dv =
  if dv <= 0.0 then 0
  else
    let dt = dv *. weight /. Cfs.nice0_weight in
    if Float.is_finite dt && dt < float_of_int plan_horizon then
      int_of_float dt + 1
    else plan_horizon

(* The earlier of [at] and the first instant at which a runnable sibling
   in [ts] undercuts the running task [t], whose vruntime is [v] at
   [now]. *)
let rec next_rotation t v now at ts =
  match ts with
  | [] -> at
  | t' :: rest ->
      let at =
        if t'.Task.tid <> t.Task.tid && Task.is_runnable t' then
          (* [group_pick] breaks vruntime ties by list order, so a tie may
             keep the current task — re-check >= 1 ns later, never at the
             same instant *)
          let dv = t'.Task.vruntime -. v in
          min at
            (if dv < 0.0 then now
             else now + max 1 (ns_until_dv ~weight:t.Task.weight dv))
        else at
      in
      next_rotation t v now at rest

(* The waiter a balloon entity [e] races on core [i]: the core's best
   queued entity other than [e], or [Entity.none]. *)
let best_rival smp i e = Cfs.first_other smp.rqs.(i) e

(* The loan rule: a balloon group's loan is the most vruntime it has had
   to borrow this period to beat [best]. Loans start each period at 0 and
   only grow here. *)
let borrow e best =
  match e.Entity.kind with
  | Entity.EGroup g ->
      g.Entity.loan <-
        Float.max g.Entity.loan (e.Entity.vruntime -. best.Entity.vruntime)
  | Entity.ETask _ -> ()

let put_prev smp core =
  let rq = smp.rqs.(core) in
  match Cfs.curr rq with
  | None -> ()
  | Some e ->
      cancel_work smp core;
      let t = running_task_of e in
      if t.Task.state = Task.Running then t.Task.state <- Task.Runnable;
      (match e.Entity.kind with
      | Entity.EGroup g -> g.Entity.gcurr <- None
      | Entity.ETask _ -> ());
      Cfs.set_curr rq None;
      if Entity.runnable e && not (entity_throttled smp e) then Cfs.enqueue rq e;
      Psbox_hw.Cpu.set_core_busy smp.cpu ~core false;
      set_span smp core no_span

(* Program advancement: drive a task's program until it yields an action
   that leaves the CPU or new work to run. Returns [`Runs] if the task has
   fresh work and should keep the CPU. *)
let rec advance smp t fuel =
  if fuel <= 0 then failwith "Smp: task program made no progress (10k steps)";
  match t.Task.program () with
  | Task.Run s -> if s <= 0 then advance smp t (fuel - 1) else (t.Task.remaining <- s; `Runs)
  | Task.Yield ->
      t.Task.remaining <- 0;
      `Off
  | Task.Block ->
      if t.Task.wake_pending then begin
        t.Task.wake_pending <- false;
        advance smp t (fuel - 1)
      end
      else begin
        t.Task.state <- Task.Blocked;
        `Off
      end
  | Task.Sleep s ->
      t.Task.state <- Task.Blocked;
      ignore (Sim.schedule_after smp.sim s smp.wakers.(t.Task.slot));
      `Off
  | Task.Exit ->
      t.Task.state <- Task.Exited;
      `Off


let record_latency smp t =
  if t.Task.last_wake >= 0 then begin
    let lat = Time.to_us_f (Sim.now smp.sim - t.Task.last_wake) in
    Trace.emit smp.latencies (Sim.now smp.sim) (t.Task.app, lat);
    Tm.observe_in (Sim.metrics smp.sim) smp.tm_wake_lat lat;
    t.Task.last_wake <- -1
  end

(* ------------------------------------------------------------------ *)
(* Dispatch                                                             *)

(* How many of [tasks] are assigned to [core] and not exited, plus [acc]. *)
let rec count_assigned core acc = function
  | [] -> acc
  | t :: rest ->
      count_assigned core
        (if t.Task.core = core && t.Task.state <> Task.Exited then acc + 1
         else acc)
        rest

(* A task entity whose task can run: what an idle core may steal. *)
let runnable_task e =
  match e.Entity.kind with
  | Entity.ETask t -> Task.is_runnable t
  | Entity.EGroup _ -> false

let rec schedule_work smp core t =
  cancel_work smp core;
  let span = max 0 t.Task.remaining in
  smp.work_events.(core) <- Sim.schedule_after smp.sim span smp.work_fns.(core)

and work_fired smp core =
  smp.work_events.(core) <- Sim.none;
  update_curr smp core;
  let rq = smp.rqs.(core) in
  match Cfs.curr rq with
  | None -> ()
  | Some e ->
      let t = running_task_of e in
      if (not (Task.is_none t)) && t.Task.remaining <= 0 then begin
        match advance smp t 10_000 with
        | `Runs -> schedule_work smp core t
        | `Off ->
            if t.Task.state = Task.Exited then reap smp t;
            resched smp core
      end

and reap smp t =
  (* Remove an exited task from its app roster and any group. *)
  (* [spawn] grew the rosters to cover the task's app *)
  smp.apps.(t.Task.app) <-
    List.filter (fun t' -> t'.Task.tid <> t.Task.tid) smp.apps.(t.Task.app);
  (* [wake] ignores an exited task, so a sleep still pending loses
     nothing; the slot itself is not handed out again *)
  smp.wakers.(t.Task.slot) <- ignore;
  match balloon_of_app smp t.Task.app with
  | Some b ->
      Array.iter
        (fun e ->
          match e.Entity.kind with
          | Entity.EGroup g ->
              g.Entity.gtasks <-
                List.filter (fun t' -> t'.Task.tid <> t.Task.tid) g.Entity.gtasks
          | Entity.ETask _ -> ())
        b.b_entities
  | None -> smp.entities.(t.Task.slot) <- Entity.none

and start_task smp core t =
  t.Task.state <- Task.Running;
  t.Task.core <- core;
  record_latency smp t;
  Psbox_hw.Cpu.set_core_busy smp.cpu ~core true;
  set_span smp core t.Task.app;
  schedule_work smp core t

and run smp core next =
  do_run smp core next;
  (* every dispatch decision changes what the next interesting instant is *)
  replan smp core

and do_run smp core next =
  let rq = smp.rqs.(core) in
  match next with
  | None ->
      Psbox_hw.Cpu.set_core_busy smp.cpu ~core false;
      set_span smp core (-1)
  | Some e -> (
      Cfs.dequeue rq e;
      Cfs.set_curr rq next;
      smp.curr_started.(core) <- Sim.now smp.sim;
      smp.dispatched.(core) <- Sim.now smp.sim;
      match e.Entity.kind with
      | Entity.ETask t -> start_task smp core t
      | Entity.EGroup g -> (
          match Entity.group_pick g with
          | Some t ->
              g.Entity.gcurr <- Some t;
              start_task smp core t
          | None ->
              g.Entity.gcurr <- None;
              Psbox_hw.Cpu.set_core_busy smp.cpu ~core false;
              set_span smp core (-2);
              (* a balloon whose app has nothing runnable anywhere should
                 not hold the machine idle until the next tick *)
              (match smp.live with
              | Some b when not (Array.exists Entity.runnable b.b_entities) ->
                  ignore
                    (Sim.schedule_after smp.sim 0 (fun () ->
                         if
                           b.b_live
                           && not (Array.exists Entity.runnable b.b_entities)
                         then cosched_out smp b))
              | _ -> ())))

and pick_next smp core =
  match smp.live with
  | Some b -> Some b.b_entities.(core)
  | None -> Cfs.leftmost smp.rqs.(core)

(* Idle-pull load balancing: an idling core steals a waiting task entity
   from a core that is already running something else. Balloon groups are
   never migrated (their cores are fixed by construction). Migration
   re-bases the vruntime on the destination queue, as CFS does. *)
and assigned_load smp core =
  let load = ref 0 in
  for app = 0 to Array.length smp.apps - 1 do
    load := count_assigned core !load smp.apps.(app)
  done;
  !load

and try_steal smp core =
  match smp.live with
  | Some _ -> None
  | None when smp.balloons > 0 ->
      (* while any app is sandboxed, migrations would scramble the per-core
         loan bookkeeping that keeps coscheduling fair *)
      None
  | None -> (
      let found = ref Entity.none and from = ref 0 in
      let my_load = assigned_load smp core in
      for j = 0 to cores smp - 1 do
        if j <> core && Entity.is_none !found then begin
          let rqj = smp.rqs.(j) in
          let victim_busy =
            match Cfs.curr rqj with Some _ -> true | None -> false
          in
          (* steal only when it moves the assigned-task counts toward
             balance — a core full of briefly-sleeping tasks is not idle
             capacity, and count drift would clump apps onto one core *)
          if victim_busy && assigned_load smp j >= my_load + 2 then begin
            found := Cfs.find_first rqj runnable_task;
            from := j
          end
        end
      done;
      let e = !found in
      match e.Entity.kind with
      | Entity.ETask t when not (Entity.is_none e) ->
          let rqj = smp.rqs.(!from) in
          Cfs.dequeue rqj e;
          t.Task.core <- core;
          e.Entity.vruntime <-
            e.Entity.vruntime -. Cfs.min_vruntime rqj
            +. Cfs.min_vruntime smp.rqs.(core);
          t.Task.vruntime <- e.Entity.vruntime;
          Some e
      | Entity.ETask _ | Entity.EGroup _ -> None)

and resched smp core =
  update_curr smp core;
  put_prev smp core;
  let next =
    match pick_next smp core with
    | Some e -> Some e
    | None -> try_steal smp core
  in
  (match (next, smp.live) with
  | Some e, None when Entity.is_group e -> (
      match balloon_of_app smp (Entity.app_of e) with
      | Some b -> start_balloon smp core b
      | None -> ())
  | _ -> ());
  run smp core next

(* ------------------------------------------------------------------ *)
(* Spatial balloons                                                     *)

and start_balloon smp core b =
  b.b_live <- true;
  b.b_period <- b.b_period + 1;
  b.b_joined <- 1;
  b.b_metering <- false;
  Array.iter
    (fun e ->
      match e.Entity.kind with
      | Entity.EGroup g -> g.Entity.loan <- 0.0
      | Entity.ETask _ -> ())
    b.b_entities;
  smp.live <- Some b;
  if cores smp = 1 then begin
    b.b_started <- Sim.now smp.sim;
    b.b_metering <- true;
    b.b_on_start ();
    replan_balloon smp b
  end
  else
    let period = b.b_period in
    for j = 0 to cores smp - 1 do
      if j <> core then
        ignore
          (Sim.schedule_after smp.sim ipi_delay (fun () ->
               join_balloon smp b j period))
    done

and join_balloon smp b j period =
  if b.b_live && b.b_period = period then begin
    update_curr smp j;
    put_prev smp j;
    let e = b.b_entities.(j) in
    (* initial loan: what E_j must borrow to beat the core's best runnable *)
    let best = best_rival smp j e in
    if not (Entity.is_none best) then borrow e best;
    run smp j (Some e);
    b.b_joined <- b.b_joined + 1;
    if b.b_joined = cores smp then begin
      b.b_started <- Sim.now smp.sim;
      b.b_metering <- true;
      b.b_on_start ();
      replan_balloon smp b
    end
  end

and cosched_out smp ?(local = 0) b =
  cancel_balloon_event smp;
  for i = 0 to cores smp - 1 do
    update_curr smp i
  done;
  (* settle every loan to its exact supremum before redistribution (the
     tick-driven scheduler sampled this at most a tick late) *)
  for i = 0 to cores smp - 1 do
    let e = b.b_entities.(i) in
    let best = best_rival smp i e in
    if not (Entity.is_none best) then borrow e best
  done;
  b.b_live <- false;
  smp.live <- None;
  if b.b_metering then begin
    b.b_metering <- false;
    b.b_intervals <- (b.b_started, Sim.now smp.sim) :: b.b_intervals;
    if Tt.recording_in (Sim.tracer smp.sim) then
      Tt.span ~track:cfs_track ~lane:"balloon" ~name:(app_label b.b_app)
        ~start:b.b_started ~stop:(Sim.now smp.sim) ();
    b.b_on_stop b.b_started
  end;
  (* loan redistribution: entities evenly split the period's total loan *)
  let total = ref 0.0 and groups = ref 0 in
  for i = 0 to Array.length b.b_entities - 1 do
    match b.b_entities.(i).Entity.kind with
    | Entity.EGroup g ->
        total := !total +. g.Entity.loan;
        incr groups
    | Entity.ETask _ -> ()
  done;
  let total = !total and n = float_of_int !groups in
  b.b_total_loan <- b.b_total_loan +. total;
  for i = 0 to Array.length b.b_entities - 1 do
    let e = b.b_entities.(i) in
    match e.Entity.kind with
    | Entity.EGroup g ->
        if smp.confine_cost then
          e.Entity.vruntime <-
            e.Entity.vruntime +. ((total /. n) -. g.Entity.loan);
        g.Entity.loan <- 0.0
    | Entity.ETask _ -> ()
  done;
  (* schedule out everywhere: local core now, remote cores after the IPI *)
  resched smp local;
  for j = 0 to cores smp - 1 do
    if j <> local then
      ignore (Sim.schedule_after smp.sim ipi_delay (fun () -> resched smp j))
  done

(* Balloon bookkeeping on the designated tick: loan growth and the
   schedule-out condition ("none of {E} has the best credit"). *)
and balloon_tick smp ~local b =
  let n = cores smp in
  let wins = ref 0 in
  for i = 0 to n - 1 do
    let e = b.b_entities.(i) in
    let best = best_rival smp i e in
    if (not (Entity.is_none best)) && e.Entity.vruntime > best.Entity.vruntime
    then borrow e best
    else incr wins
  done;
  let any_runnable = Array.exists Entity.runnable b.b_entities in
  let loan_capped =
    Array.exists
      (fun e ->
        match e.Entity.kind with
        | Entity.EGroup g -> g.Entity.loan > max_loan
        | Entity.ETask _ -> false)
      b.b_entities
  in
  let over_period = Sim.now smp.sim - b.b_started > max_period in
  if !wins = 0 || loan_capped || over_period || not any_runnable then
    cosched_out smp ~local b

(* Rotate the inner task of a balloon group when a sibling has less
   vruntime, or start one if the core sits idle with runnable members. *)
and inner_rotate smp core =
  let rq = smp.rqs.(core) in
  match Cfs.curr rq with
  | Some e -> (
      match e.Entity.kind with
      | Entity.EGroup g -> (
          match (g.Entity.gcurr, Entity.group_pick g) with
          | None, Some _ -> resched smp core
          | Some curr_t, Some best when best.Task.tid <> curr_t.Task.tid ->
              resched smp core
          | _ -> ())
      | Entity.ETask _ -> ())
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Demand wakeups (replacing the periodic tick)

   Instead of polling every core every tick, the scheduler computes the
   next instant at which a tick would have acted — a waiter's vruntime
   undercutting the runner's, a balloon boundary, an idle pickup — and
   schedules exactly one event there. Every fire handler re-derives the
   decision from live state before acting (verify-and-re-arm), so a plan
   built from slightly stale projections is never wrong, only re-aimed. *)

and replan smp core =
  match smp.live with
  | Some b when b.b_live ->
      replan_rotate smp core;
      replan_balloon smp b
  | Some _ | None -> replan_core smp core

and replan_core smp core =
  cancel_plan smp core;
  if not smp.stopped then begin
    let rq = smp.rqs.(core) in
    let now = Sim.now smp.sim in
    match (Cfs.curr rq, Cfs.leftmost rq) with
    | None, Some _ ->
        (* idle core with queued work: pick it up this instant (the
           polling scheduler waited for the next tick) *)
        smp.plan_events.(core) <-
          Sim.schedule_at smp.sim now smp.plan_fns.(core)
    | Some c, Some l ->
        (* the instant the waiter's static vruntime undercuts the runner's
           growing one, floored by one tick as the minimum quantum. The
           preemption test is strict, so a tie must re-check >= 1 ns later
           (same-instant re-arms would loop), and a non-charging runner
           (confined group sitting idle) never crosses at all — chain at
           the horizon instead. *)
        let v = curr_vruntime_now smp core c in
        let dv = l.Entity.vruntime -. v in
        let at =
          if dv < 0.0 then now
          else if not (accrues smp c) then now + plan_horizon
          else now + max 1 (ns_until_dv ~weight:c.Entity.weight dv)
        in
        let at = max at (smp.dispatched.(core) + tick) in
        smp.plan_events.(core) <-
          Sim.schedule_at smp.sim at smp.plan_fns.(core)
    | (Some _ | None), None -> ()
  end

(* Next inner-rotation instant of a live balloon's group on [core]: the
   earliest crossing between the inner runner's growing vruntime and a
   runnable sibling's static one, floored by one tick. *)
and replan_rotate smp core =
  cancel_plan smp core;
  if not smp.stopped then begin
    let rq = smp.rqs.(core) in
    match Cfs.curr rq with
    | Some { Entity.kind = Entity.EGroup g; _ } -> (
        let now = Sim.now smp.sim in
        match g.Entity.gcurr with
        | None -> (
            match Entity.group_pick g with
            | Some _ ->
                smp.plan_events.(core) <-
                  Sim.schedule_at smp.sim now smp.plan_fns.(core)
            | None -> ())
        | Some t ->
            let delta = now - smp.curr_started.(core) in
            let v =
              if delta <= 0 then t.Task.vruntime
              else
                t.Task.vruntime
                +. (float_of_int delta *. Cfs.nice0_weight /. t.Task.weight)
            in
            let next = next_rotation t v now max_int g.Entity.gtasks in
            if next < max_int then begin
              let at = max next (smp.dispatched.(core) + tick) in
              smp.plan_events.(core) <-
                Sim.schedule_at smp.sim at smp.plan_fns.(core)
            end)
    | Some _ | None -> ()
  end

and plan_fired smp core =
  smp.plan_events.(core) <- Sim.none;
  if not smp.stopped then begin
    update_curr smp core;
    match smp.live with
    | Some b when b.b_live ->
        Tm.incr_in (Sim.metrics smp.sim) smp.tm_ev_rotate;
        inner_rotate smp core;
        (* inner_rotate re-plans through resched/run if it acted *)
        if Sim.is_none smp.plan_events.(core) then replan smp core
    | Some _ | None -> (
        Tm.incr_in (Sim.metrics smp.sim) smp.tm_ev_preempt;
        let rq = smp.rqs.(core) in
        match (Cfs.curr rq, Cfs.leftmost rq) with
        | Some c, Some l when l.Entity.vruntime < c.Entity.vruntime ->
            resched smp core
        | None, Some _ -> resched smp core
        | _ -> replan_core smp core)
  end

(* One machine-wide wakeup at the live balloon's next boundary:
   min over (max_period expiry; the earliest loan-cap crossing on any
   core; the latest instant at which the balloon still wins some core's
   credit race — after it, wins = 0). All three are exact projections of
   the conditions [balloon_tick] checks; the fire handler re-evaluates
   them on materialised accounting. *)
and replan_balloon smp b =
  cancel_balloon_event smp;
  if (not smp.stopped) && b.b_live && b.b_metering then begin
    let now = Sim.now smp.sim in
    let at = ref (b.b_started + max_period + 1) in
    (* running max of per-core win-loss instants; it counts only while
       every core has a waiter, since otherwise wins can never reach zero *)
    let lose_all = ref now and raced_everywhere = ref true in
    for i = 0 to cores smp - 1 do
      let e = b.b_entities.(i) in
      let rq = smp.rqs.(i) in
      let charging = curr_is rq e && accrues smp e in
      let v =
        if curr_is rq e then curr_vruntime_now smp i e else e.Entity.vruntime
      in
      let best = best_rival smp i e in
      if Entity.is_none best then raced_everywhere := false
      else begin
        let dv = best.Entity.vruntime -. v in
        let t_lose =
          if dv < 0.0 then now
          else if charging then
            now + max 1 (ns_until_dv ~weight:e.Entity.weight dv)
          else now + plan_horizon
        in
        lose_all := max !lose_all t_lose;
        (match e.Entity.kind with
        | Entity.EGroup g ->
            if g.Entity.loan > max_loan then at := min !at now
            else if charging then begin
              let dv_cap = max_loan +. best.Entity.vruntime -. v in
              at :=
                min !at
                  (now + max 1 (ns_until_dv ~weight:e.Entity.weight dv_cap))
            end
        | Entity.ETask _ -> ())
      end
    done;
    if !raced_everywhere then at := min !at (max !lose_all now);
    let at = min !at (now + plan_horizon) in
    smp.balloon_event <- Sim.schedule_at smp.sim (max at now) smp.balloon_fn
  end

and balloon_fired smp =
  smp.balloon_event <- Sim.none;
  if not smp.stopped then
    match smp.live with
    | Some b when b.b_live ->
        Tm.incr_in (Sim.metrics smp.sim) smp.tm_ev_balloon;
        for i = 0 to cores smp - 1 do
          update_curr smp i
        done;
        (* If this boundary schedules the balloon out, the [local] core
           rescheds this instant and the rest after the IPI — so hand
           "local" to the core whose waiting competitor has the best
           claim. (The tick-driven scheduler got an equivalent rotation
           for free from its staggered per-core ticks; without this,
           core 0 would always repick first and could restart the same
           balloon forever, starving a competing sandbox.) *)
        let local = ref 0 and best_v = ref infinity in
        for i = 0 to cores smp - 1 do
          let w = best_rival smp i b.b_entities.(i) in
          if (not (Entity.is_none w)) && w.Entity.vruntime < !best_v then begin
            best_v := w.Entity.vruntime;
            local := i
          end
        done;
        balloon_tick smp ~local:!local b;
        if b.b_live then replan_balloon smp b
    | Some _ | None -> ()

let create sim cpu ~confine_cost =
  let smp = make sim cpu ~confine_cost in
  for core = 0 to cores smp - 1 do
    smp.work_fns.(core) <- (fun () -> work_fired smp core);
    smp.plan_fns.(core) <- (fun () -> plan_fired smp core)
  done;
  smp.balloon_fn <- (fun () -> balloon_fired smp);
  smp

(* ------------------------------------------------------------------ *)
(* Quota enforcement                                                    *)

(* Take an over-quota app off the CPUs: queued entities are removed, cores
   running it reschedule (put_prev's throttle guard keeps them off the
   queue). Sandboxed apps are exempt (see [entity_throttled]). *)
let throttle smp app q =
  Sim.cancel smp.sim q.q_event;
  q.q_event <- Sim.none;
  q.q_throttled <- true;
  Tm.incr_in (Sim.metrics smp.sim) smp.tm_throttles;
  if Tt.recording_in (Sim.tracer smp.sim) then
    Tt.instant ~track:cfs_track ~lane:"quota"
      ~name:("throttle " ^ app_label app)
      (Sim.now smp.sim);
  let of_app e =
    match e.Entity.kind with
    | Entity.ETask t -> t.Task.app = app
    | Entity.EGroup _ -> false
  in
  for core = 0 to cores smp - 1 do
    Cfs.dequeue_if smp.rqs.(core) of_app
  done;
  for core = 0 to cores smp - 1 do
    if running_app smp ~core = app then resched smp core
  done

(* ------------------------------------------------------------------ *)
(* Start / stop                                                         *)

let start smp =
  (* no periodic ticks: each core's resched ends in a demand re-plan *)
  for core = 0 to cores smp - 1 do
    resched smp core
  done

(* Scheduling out a live balloon reschedules, which may start the next
   period; a second stop must not schedule that one out again. *)
let stop smp =
  if not smp.stopped then begin
    smp.stopped <- true;
    Array.iter (fun h -> Sim.cancel smp.sim h) smp.plan_events;
    Array.iter (fun h -> Sim.cancel smp.sim h) smp.work_events;
    cancel_balloon_event smp;
    iter_quotas smp (fun _ q ->
        Sim.cancel smp.sim q.q_event;
        q.q_event <- Sim.none);
    Option.iter Sim.stop_timer smp.refill;
    (match smp.live with Some b -> cosched_out smp b | None -> ());
    (* complete the open spans, without a Chrome span or a share change *)
    let now = Sim.now smp.sim in
    List.init (cores smp) Fun.id
    |> List.sort (fun c c' ->
           Int.compare smp.span_opened.(c') smp.span_opened.(c))
    |> List.iter (fun core ->
           let app = smp.span_tag.(core) in
           if app <> no_span then complete_span smp core app now;
           smp.span_tag.(core) <- no_span)
  end

(* ------------------------------------------------------------------ *)
(* Wakeups and spawning                                                 *)

let preempt_check smp core e =
  match smp.live with
  | Some b when b.b_live ->
      (* the enqueue changed some core's best waiter: re-aim the balloon
         boundary at the new credit-race geometry *)
      replan_balloon smp b
  | Some _ -> ()
  | None -> (
      let rq = smp.rqs.(core) in
      match Cfs.curr rq with
      | None -> resched smp core
      | Some c ->
          if e.Entity.vruntime +. wakeup_granularity < c.Entity.vruntime
          then resched smp core
          else
            (* no immediate preemption; the crossing with the new waiter
               still needs a planned wakeup *)
            replan_core smp core)

let wake smp t =
  match t.Task.state with
  | Task.Blocked -> (
      t.Task.state <- Task.Runnable;
      t.Task.last_wake <- Sim.now smp.sim;
      let core = t.Task.core in
      let rq = smp.rqs.(core) in
      match balloon_of_app smp t.Task.app with
      | Some b -> (
          let e = b.b_entities.(core) in
          match smp.live with
          | Some b' when b' == b ->
              (* already forced in; make sure the core picks the waker up,
                 or re-aim the rotation plan at the new runnable member *)
              if curr_is rq e then
                (match e.Entity.kind with
                | Entity.EGroup g ->
                    if Option.is_none g.Entity.gcurr then resched smp core
                    else replan smp core
                | Entity.ETask _ -> ())
          | _ ->
              if (not e.Entity.on_rq) && not (curr_is rq e) then begin
                Cfs.place_woken rq e;
                Cfs.enqueue rq e
              end;
              preempt_check smp core e)
      | None ->
          let e = smp.entities.(t.Task.slot) in
          if throttled_app smp t.Task.app then
            (* stays runnable but off the queue; the next quota refill
               enqueues it *)
            ()
          else begin
            if (not e.Entity.on_rq) && not (curr_is rq e) then begin
              Cfs.place_woken rq e;
              t.Task.vruntime <- e.Entity.vruntime;
              Cfs.enqueue rq e
            end;
            preempt_check smp core e
          end)
  | Task.Running | Task.Runnable -> t.Task.wake_pending <- true
  | Task.Exited -> ()

let spawn smp t =
  let app = t.Task.app in
  if app < 0 then
    invalid_arg (Printf.sprintf "Smp.spawn: app %d is negative" app);
  if app >= Array.length smp.apps then smp.apps <- grown smp.apps app [];
  smp.apps.(app) <- t :: smp.apps.(app);
  if smp.slots = Array.length smp.entities then begin
    smp.entities <- grown smp.entities smp.slots Entity.none;
    smp.wakers <- grown smp.wakers smp.slots ignore
  end;
  t.Task.slot <- smp.slots;
  smp.wakers.(smp.slots) <- (fun () -> wake smp t);
  smp.slots <- smp.slots + 1;
  t.Task.last_wake <- Sim.now smp.sim;
  let core = t.Task.core in
  let rq = smp.rqs.(core) in
  match balloon_of_app smp t.Task.app with
  | Some b -> (
      let e = b.b_entities.(core) in
      (match e.Entity.kind with
      | Entity.EGroup g -> g.Entity.gtasks <- t :: g.Entity.gtasks
      | Entity.ETask _ -> ());
      match smp.live with
      | Some b' when b' == b ->
          (match e.Entity.kind with
          | Entity.EGroup g ->
              if Option.is_none g.Entity.gcurr then resched smp core
              else replan smp core
          | Entity.ETask _ -> ())
      | _ ->
          if (not e.Entity.on_rq) && not (curr_is rq e) then begin
            Cfs.place_woken rq e;
            Cfs.enqueue rq e
          end;
          preempt_check smp core e)
  | None ->
      let e = Entity.of_task t in
      smp.entities.(t.Task.slot) <- e;
      Cfs.place_new rq e;
      t.Task.vruntime <- e.Entity.vruntime;
      if not (throttled_app smp t.Task.app) then begin
        Cfs.enqueue rq e;
        preempt_check smp core e
      end

(* ------------------------------------------------------------------ *)
(* Quota API                                                            *)

let unthrottle smp app q =
  q.q_throttled <- false;
  Tm.incr_in (Sim.metrics smp.sim) smp.tm_unthrottles;
  if Tt.recording_in (Sim.tracer smp.sim) then
    Tt.instant ~track:cfs_track ~lane:"quota"
      ~name:("unthrottle " ^ app_label app)
      (Sim.now smp.sim);
  List.iter
    (fun t ->
      let e = smp.entities.(t.Task.slot) in
      if Task.is_runnable t && not (Entity.is_none e) then begin
        let rq = smp.rqs.(t.Task.core) in
        if (not e.Entity.on_rq) && not (curr_is rq e) then begin
          Cfs.place_woken rq e;
          t.Task.vruntime <- e.Entity.vruntime;
          Cfs.enqueue rq e;
          preempt_check smp t.Task.core e
        end
      end)
    (app_tasks smp ~app)

let quota_refill smp () =
  if not smp.stopped then
    iter_quotas smp (fun app q ->
        q.q_used <- 0;
        if q.q_throttled then unthrottle smp app q)

(* The app's quota drains at [running-core-count] core-ns per ns, so the
   projected balance pins the enforcement instant exactly; consumed time
   still inside the cores' accounting windows is folded into the
   projection without materialising it. *)
let quota_used_now smp app q =
  let now = Sim.now smp.sim in
  let extra = ref 0 in
  for core = 0 to cores smp - 1 do
    if running_app smp ~core = app then
      extra := !extra + (now - smp.curr_started.(core))
  done;
  q.q_used + !extra

let rec replan_quota smp app =
  match find_quota smp app with
  | None -> ()
  | Some q ->
      Sim.cancel smp.sim q.q_event;
      q.q_event <- Sim.none;
      if (not smp.stopped) && (not q.q_throttled) && not (sandboxed smp app)
      then begin
        let ncores = shares_of smp app in
        if ncores > 0 then begin
          let limit_ns = q.q_limit *. float_of_int quota_period in
          let used_ns = float_of_int (quota_used_now smp app q) in
          let dt =
            if used_ns >= limit_ns then 1
            else begin
              let d = (limit_ns -. used_ns) /. float_of_int ncores in
              if Float.is_finite d && d < float_of_int plan_horizon then
                int_of_float d + 1
              else plan_horizon
            end
          in
          q.q_event <- Sim.schedule_after smp.sim dt q.q_fire
        end
      end

and quota_fired smp app =
  match find_quota smp app with
  | None -> ()
  | Some q ->
      q.q_event <- Sim.none;
      if not smp.stopped then begin
        Tm.incr_in (Sim.metrics smp.sim) smp.tm_ev_quota;
        for core = 0 to cores smp - 1 do
          if running_app smp ~core = app then update_curr smp core
        done;
        let in_balloon =
          match smp.live with Some _ -> true | None -> false
        in
        if
          (not in_balloon) && (not q.q_throttled)
          && (not (sandboxed smp app))
          && shares_of smp app > 0
          && Time.to_sec_f q.q_used
             >= q.q_limit *. Time.to_sec_f quota_period
        then throttle smp app q
        else replan_quota smp app
      end

(* Refill boundaries stay on the grid the first quota anchored, but a
   boundary is only armed while some budgeted app is consuming (or
   throttled); skipped boundaries are exact no-ops — every balance is
   already zero and nothing is waiting. Every share change of a budgeted
   app re-arms, so the body closure is built only when the timer is idle. *)
let rec arm_refill smp =
  match smp.refill with
  | Some tm when Sim.timer_state tm = Sim.Idle ->
      Sim.arm tm (fun () -> refill_fired smp)
  | Some _ | None -> ()

and refill_fired smp =
  Tm.incr_in (Sim.metrics smp.sim) smp.tm_ev_refill;
  quota_refill smp ();
  iter_quotas smp (fun app _ -> replan_quota smp app);
  let active = ref false in
  for app = 0 to Array.length smp.quota_of - 1 do
    if Option.is_some smp.quota_of.(app) && shares_of smp app > 0 then
      active := true
  done;
  if !active then arm_refill smp

(* The grid starts lazily with the first quota, so an unbudgeted machine
   schedules exactly the same events as before this feature; a stopped
   machine starts none. *)
let ensure_quota_tick smp =
  if Option.is_none smp.refill && not smp.stopped then
    smp.refill <- Some (Sim.timer smp.sim quota_period);
  arm_refill smp

let () =
  quota_share_hook :=
    fun smp app ->
      replan_quota smp app;
      arm_refill smp

let set_quota smp ~app limit =
  if app < 0 then
    invalid_arg (Printf.sprintf "Smp.set_quota: app %d is negative" app);
  match limit with
  | None -> (
      match find_quota smp app with
      | Some q ->
          Sim.cancel smp.sim q.q_event;
          q.q_event <- Sim.none;
          if q.q_throttled then unthrottle smp app q;
          smp.quota_of.(app) <- None
      | None -> ())
  | Some l ->
      let l = Float.max 0.0 l in
      (match find_quota smp app with
      | Some q -> q.q_limit <- l
      | None ->
          if app >= Array.length smp.quota_of then
            smp.quota_of <- grown smp.quota_of app None;
          smp.quota_of.(app) <-
            Some
              {
                q_limit = l;
                q_used = 0;
                q_throttled = false;
                q_event = Sim.none;
                q_fire = (fun () -> quota_fired smp app);
              });
      ensure_quota_tick smp;
      replan_quota smp app

let quota smp ~app =
  match find_quota smp app with Some q -> Some q.q_limit | None -> None

(* ------------------------------------------------------------------ *)
(* Sandbox / unsandbox                                                  *)

let sandbox smp ~app ~on_start ~on_stop =
  if sandboxed smp app then invalid_arg "Smp.sandbox: app already sandboxed";
  let n = cores smp in
  let entities = Array.init n (fun core -> Entity.group ~psbox_id:app ~core) in
  let b =
    {
      b_app = app;
      b_entities = entities;
      b_live = false;
      b_period = 0;
      b_started = Time.zero;
      b_joined = 0;
      b_metering = false;
      b_intervals = [];
      b_on_start = on_start;
      b_on_stop = on_stop;
      b_total_loan = 0.0;
    }
  in
  let tasks = app_tasks smp ~app in
  (* pull tasks out of normal scheduling *)
  let touched_cores = ref [] in
  List.iter
    (fun t ->
      let core = t.Task.core in
      let e = smp.entities.(t.Task.slot) in
      if not (Entity.is_none e) then begin
        let rq = smp.rqs.(core) in
        if curr_is rq e then begin
          (* detach the running task's old entity so it cannot be
             requeued alongside the new group entity *)
          touched_cores := core :: !touched_cores;
          cancel_work smp core;
          if t.Task.state = Task.Running then t.Task.state <- Task.Runnable;
          Cfs.set_curr rq None;
          Psbox_hw.Cpu.set_core_busy smp.cpu ~core false;
          set_span smp core no_span
        end
        else Cfs.dequeue rq e;
        smp.entities.(t.Task.slot) <- Entity.none
      end;
      match entities.(core).Entity.kind with
      | Entity.EGroup g -> g.Entity.gtasks <- t :: g.Entity.gtasks
      | Entity.ETask _ -> ())
    tasks;
  if app >= Array.length smp.balloon_of then
    smp.balloon_of <- grown smp.balloon_of app None;
  smp.balloon_of.(app) <- Some b;
  smp.balloons <- smp.balloons + 1;
  (* fair starting credit: at least the core's min_vruntime, at least the
     average credit of the enclosed tasks *)
  Array.iteri
    (fun core e ->
      let rq = smp.rqs.(core) in
      (match e.Entity.kind with
      | Entity.EGroup g ->
          let ts = g.Entity.gtasks in
          let avg =
            match ts with
            | [] -> 0.0
            | _ ->
                List.fold_left (fun a t -> a +. t.Task.vruntime) 0.0 ts
                /. float_of_int (List.length ts)
          in
          e.Entity.vruntime <- Float.max avg (Cfs.min_vruntime rq)
      | Entity.ETask _ -> ());
      if Entity.runnable e then Cfs.enqueue rq e)
    entities;
  (* cores whose curr was one of the app's tasks must reschedule *)
  List.iter (fun core -> resched smp core) (List.sort_uniq compare !touched_cores);
  (* the group entities just enqueued change every core's next crossing *)
  for core = 0 to cores smp - 1 do
    replan smp core
  done;
  b

let unsandbox smp b =
  if b.b_live then cosched_out smp b;
  (match balloon_of_app smp b.b_app with
  | Some b' when b' == b ->
      smp.balloon_of.(b.b_app) <- None;
      smp.balloons <- smp.balloons - 1
  | Some _ | None -> ());
  let touched = ref [] in
  Array.iteri
    (fun core e ->
      let rq = smp.rqs.(core) in
      if curr_is rq e then begin
        touched := core :: !touched;
        (* detach without requeueing the group *)
        let t = running_task_of e in
        if t.Task.state = Task.Running then t.Task.state <- Task.Runnable;
        (match e.Entity.kind with
        | Entity.EGroup g -> g.Entity.gcurr <- None
        | Entity.ETask _ -> ());
        cancel_work smp core;
        Cfs.set_curr rq None;
        Psbox_hw.Cpu.set_core_busy smp.cpu ~core false;
        set_span smp core no_span
      end
      else Cfs.dequeue rq e;
      match e.Entity.kind with
      | Entity.EGroup g ->
          List.iter
            (fun t ->
              let te = Entity.of_task t in
              te.Entity.vruntime <- t.Task.vruntime;
              smp.entities.(t.Task.slot) <- te;
              if Task.is_runnable t then begin
                Cfs.place_woken rq te;
                t.Task.vruntime <- te.Entity.vruntime;
                Cfs.enqueue rq te
              end)
            g.Entity.gtasks;
          g.Entity.gtasks <- []
      | Entity.ETask _ -> ())
    b.b_entities;
  List.iter (fun core -> resched smp core) (List.sort_uniq compare !touched);
  for core = 0 to cores smp - 1 do
    replan smp core
  done

let balloon_intervals b = List.rev b.b_intervals

let balloon_open_since b = if b.b_metering then Some b.b_started else None
let total_loan_issued b = b.b_total_loan
