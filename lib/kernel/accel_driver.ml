open Psbox_engine
module Accel = Psbox_hw.Accel
module Tm = Psbox_telemetry.Metrics
module Tt = Psbox_telemetry.Tracing

type policy = Fair | Round_robin
type buffering = Lock_requests | Per_process_queues
type phase = Normal | Drain_others | Serve | Drain_psbox

type pending = {
  p_cmd : Accel.command;
  p_cb : Accel.command -> unit;
  p_enqueued : Time.t;
}

type share_change = { at : Time.t; app : int; share : float }

(* Leaky-bucket rate gate: [g_next] is the earliest instant the app may
   dispatch again; each dispatch pushes it out by cost/rate. *)
type gate = { mutable g_rate : float; mutable g_next : Time.t }

type t = {
  sim : Sim.t;
  dev : Accel.t;
  policy : policy;
  buffering : buffering;
  window : int;
  confine_cost : bool;
  queues : (int, pending Queue.t) Hashtbl.t;
  callbacks : (int, pending) Hashtbl.t; (* command id -> pending *)
  vrt : (int, float) Hashtbl.t;
  done_count : (int, int) Hashtbl.t;
  mutable vtime : float; (* fair-queueing virtual time *)
  mutable rr_order : int list;
  mutable sandboxed : int option;
  mutable unsandboxing : bool;
  mutable phase : phase;
  mutable drain_started : Time.t;
  mutable drain_busy_mark : float;
  mutable serve_started : Time.t;
  mutable intervals : (Time.t * Time.t) list; (* newest first *)
  mutable interval_open : Time.t option;
  mutable on_start : unit -> unit;
  mutable on_stop : unit -> unit;
  latencies : (int * float) Trace.events; (* stamped at dispatch *)
  log : Accel.command Trace.events; (* completed commands *)
  mutable blocked_submitters : (unit -> unit) list;
      (* SGX-style [Lock_requests] stacks: submissions that arrived while a
         foreign balloon held the queue, to be accepted at flush-others *)
  share_bus : share_change Bus.t;
  gates : (int, gate) Hashtbl.t;
  mutable gate_pump : Sim.handle; (* armed wakeup, Sim.none when idle *)
  mutable gate_at : Time.t; (* instant gate_pump is aimed at *)
      (* pending wakeup for the earliest gated backlogged app *)
  (* telemetry: per-device handles resolved once at create; the trace
     track is "kernel.accel.<device>" with one lane per app *)
  tm_track : string;
  tm_dispatched : Tm.counter;
  tm_completed : Tm.counter;
  tm_lat : Tm.histogram;
  tm_gate_wakeups : Tm.counter;
}

let device d = d.dev
let sandboxed d = d.sandboxed

let queue_of d app =
  match Hashtbl.find_opt d.queues app with
  | Some q -> q
  | None ->
      let q = Queue.create () in
      Hashtbl.add d.queues app q;
      if not (List.mem app d.rr_order) then d.rr_order <- d.rr_order @ [ app ];
      q

let vrt_of d app =
  match Hashtbl.find_opt d.vrt app with
  | Some v -> v
  | None ->
      Hashtbl.add d.vrt app d.vtime;
      d.vtime

let add_vrt d app delta = Hashtbl.replace d.vrt app (vrt_of d app +. delta)
let vruntime d ~app = vrt_of d app
let pending d ~app = Queue.length (queue_of d app)

let completed d ~app =
  match Hashtbl.find_opt d.done_count app with Some n -> n | None -> 0

let units_f d = float_of_int (Accel.units d.dev)

(* Apps with at least one buffered command. *)
let backlogged d =
  Hashtbl.fold (fun app q acc -> if Queue.is_empty q then acc else app :: acc) d.queues []

let pick_fair d apps =
  match apps with
  | [] -> None
  | _ ->
      Some
        (List.fold_left
           (fun best app -> if vrt_of d app < vrt_of d best then app else best)
           (List.hd apps) (List.tl apps))

let pick_rr d apps =
  let rec find = function
    | [] -> None
    | app :: rest -> if List.mem app apps then Some app else find rest
  in
  match find d.rr_order with
  | Some app ->
      (* rotate past the chosen app *)
      d.rr_order <-
        (List.filter (fun a -> a <> app) d.rr_order) @ [ app ];
      Some app
  | None -> None

let eligible d app =
  match Hashtbl.find_opt d.gates app with
  | Some g -> g.g_next <= Sim.now d.sim
  | None -> true

let charge_gate d app cmd =
  match Hashtbl.find_opt d.gates app with
  | Some g ->
      let cost = cmd.Accel.work_s *. float_of_int cmd.Accel.units in
      let now = Sim.now d.sim in
      let base = if g.g_next > now then g.g_next else now in
      g.g_next <- base + Time.of_sec_f (cost /. g.g_rate)
  | None -> ()

(* Rate-gated apps sit out the pick until their gate reopens; the sandboxed
   app is exempt (balloons are psbox's own enforcement path). *)
let pick_app d =
  let apps =
    List.filter
      (fun a -> d.sandboxed = Some a || eligible d a)
      (backlogged d)
  in
  match d.policy with Fair -> pick_fair d apps | Round_robin -> pick_rr d apps

let publish_share d app =
  Bus.publish d.share_bus
    {
      at = Sim.now d.sim;
      app;
      share = float_of_int (Accel.in_flight_of d.dev ~app);
    }

(* Effective credit of the sandboxed app while a balloon is open: its billed
   vruntime plus the whole-device time accrued so far this serve window. *)
let effective_sandbox_vrt d app =
  let base = vrt_of d app in
  match d.phase with
  | Serve | Drain_psbox ->
      base +. (Time.to_sec_f (Sim.now d.sim - d.serve_started) *. units_f d)
  | Normal | Drain_others -> base

let should_yield d app =
  let others = List.filter (fun a -> a <> app) (backlogged d) in
  match others with
  | [] -> false
  | _ -> (
      d.unsandboxing
      || Queue.is_empty (queue_of d app)
         && Accel.in_flight_of d.dev ~app = 0
      ||
      match d.policy with
      | Round_robin -> Queue.is_empty (queue_of d app)
      | Fair -> (
          match pick_fair d others with
          | Some best -> vrt_of d best < effective_sandbox_vrt d app
          | None -> false))

(* The virtual-time frontier: the least vruntime among apps still competing
   (queued in the driver or with commands in flight on the device). *)
let active_floor d =
  let floor = ref None in
  Hashtbl.iter
    (fun app q ->
      if (not (Queue.is_empty q)) || Accel.in_flight_of d.dev ~app > 0 then begin
        let v = vrt_of d app in
        match !floor with
        | Some f when f <= v -> ()
        | _ -> floor := Some v
      end)
    d.queues;
  !floor

let dispatch d app =
  (* advance the frontier before popping, while the dispatched app still
     counts as active; serve-phase dispatches are billed wholesale and
     would distort it *)
  (if d.phase <> Serve then
     match active_floor d with
     | Some f -> d.vtime <- Float.max d.vtime f
     | None -> ());
  let q = queue_of d app in
  let p = Queue.pop q in
  let lat = Time.to_us_f (Sim.now d.sim - p.p_enqueued) in
  Trace.emit d.latencies (Sim.now d.sim) (app, lat);
  Tm.incr d.tm_dispatched;
  Tm.observe d.tm_lat lat;
  Hashtbl.replace d.callbacks p.p_cmd.Accel.id p;
  charge_gate d app p.p_cmd;
  Accel.submit d.dev p.p_cmd;
  publish_share d app

let rec pump d =
  match d.phase with
  | Drain_others | Drain_psbox -> ()
  | Serve -> (
      match d.sandboxed with
      | None ->
          d.phase <- Normal;
          pump d
      | Some app ->
          if should_yield d app then begin
            d.phase <- Drain_psbox;
            check_drain d
          end
          else if
            Accel.in_flight d.dev < d.window
            && not (Queue.is_empty (queue_of d app))
          then begin
            dispatch d app;
            pump d
          end)
  | Normal ->
      if Accel.in_flight d.dev < d.window then begin
        match pick_app d with
        | Some app when d.sandboxed = Some app ->
            d.phase <- Drain_others;
            d.drain_started <- Sim.now d.sim;
            d.drain_busy_mark <- Accel.busy_unit_seconds d.dev;
            check_drain d
        | Some app ->
            dispatch d app;
            pump d
        | None -> arm_gate_pump d
      end

(* Nothing is dispatchable right now, but a gated backlogged app may become
   eligible later: keep exactly one wakeup armed at the earliest gate
   reopening, else a rate-capped app whose co-runners go quiet would stall
   until the next unrelated driver event. *)
and arm_gate_pump d =
  let next =
    List.fold_left
      (fun acc app ->
        match Hashtbl.find_opt d.gates app with
        | Some g when g.g_next > Sim.now d.sim -> (
            match acc with
            | Some t when t <= g.g_next -> acc
            | Some _ | None -> Some g.g_next)
        | Some _ | None -> acc)
      None (backlogged d)
  in
  match next with
  | None -> ()
  | Some t ->
      if Sim.is_none d.gate_pump || d.gate_at > t then begin
        Sim.cancel d.sim d.gate_pump;
        d.gate_at <- t;
        d.gate_pump <-
          Sim.schedule_at d.sim t (fun () ->
              d.gate_pump <- Sim.none;
              Tm.incr d.tm_gate_wakeups;
              pump d)
      end

and check_drain d =
  match d.phase with
  | Drain_others -> if Accel.in_flight d.dev = 0 then enter_serve d
  | Drain_psbox -> if Accel.in_flight d.dev = 0 then exit_serve d
  | Normal | Serve -> ()

and enter_serve d =
  (match d.sandboxed with
  | Some app when d.confine_cost ->
      (* bill the capacity lost while draining others to the sandboxed app *)
      let dur = Time.to_sec_f (Sim.now d.sim - d.drain_started) in
      let busy = Accel.busy_unit_seconds d.dev -. d.drain_busy_mark in
      add_vrt d app (Float.max 0.0 ((dur *. units_f d) -. busy))
  | Some _ | None -> ());
  d.phase <- Serve;
  d.serve_started <- Sim.now d.sim;
  d.interval_open <- Some (Sim.now d.sim);
  d.on_start ();
  pump d

and exit_serve d =
  (match d.sandboxed with
  | Some app when d.confine_cost ->
      let dur = Time.to_sec_f (Sim.now d.sim - d.serve_started) in
      add_vrt d app (dur *. units_f d)
  | Some _ | None -> ());
  (match d.interval_open with
  | Some t0 ->
      d.intervals <- (t0, Sim.now d.sim) :: d.intervals;
      (if Tt.recording () then
         let name =
           match d.sandboxed with
           | Some a -> "serve app" ^ string_of_int a
           | None -> "serve"
         in
         Tt.span ~track:d.tm_track ~lane:"balloon" ~name ~start:t0
           ~stop:(Sim.now d.sim) ());
      d.interval_open <- None
  | None -> ());
  d.on_stop ();
  d.phase <- Normal;
  if d.unsandboxing then begin
    d.sandboxed <- None;
    d.unsandboxing <- false
  end;
  (* flush-others also releases SGX-style blocked submitters *)
  let blocked = List.rev d.blocked_submitters in
  d.blocked_submitters <- [];
  List.iter (fun release -> release ()) blocked;
  pump d

let on_device_complete d cmd =
  publish_share d cmd.Accel.app;
  (match Hashtbl.find_opt d.callbacks cmd.Accel.id with
  | Some p ->
      Hashtbl.remove d.callbacks cmd.Accel.id;
      Trace.emit d.log (Sim.now d.sim) cmd;
      Tm.incr d.tm_completed;
      (* guard keeps the lane-string allocation off the untraced path *)
      (if Tt.recording () then
         match (cmd.Accel.started_at, cmd.Accel.finished_at) with
         | Some t0, Some t1 ->
             Tt.span ~track:d.tm_track
               ~lane:("app" ^ string_of_int cmd.Accel.app)
               ~name:cmd.Accel.kind ~start:t0 ~stop:t1 ()
         | _ -> ());
      Hashtbl.replace d.done_count cmd.Accel.app (completed d ~app:cmd.Accel.app + 1);
      (* per-command billing, except for the sandboxed app whose serve
         windows are billed wholesale *)
      let sandbox_billed =
        d.confine_cost
        && d.sandboxed = Some cmd.Accel.app
        && (d.phase = Serve || d.phase = Drain_psbox)
      in
      if not sandbox_billed then begin
        let occupancy =
          match (cmd.Accel.started_at, cmd.Accel.finished_at) with
          | Some t0, Some t1 ->
              Time.to_sec_f (t1 - t0) *. float_of_int cmd.Accel.units
          | _ -> cmd.Accel.work_s *. float_of_int cmd.Accel.units
        in
        add_vrt d cmd.Accel.app occupancy
      end;
      p.p_cb cmd
  | None -> ());
  check_drain d;
  pump d

let create sim dev ?(policy = Fair) ?(buffering = Per_process_queues)
    ?(window = 2) ?(confine_cost = true) () =
  if window <= 0 then invalid_arg "Accel_driver.create: window must be positive";
  let retention = Timeline.retention (Psbox_hw.Power_rail.timeline (Accel.rail dev)) in
  let d =
    {
      sim;
      dev;
      policy;
      buffering;
      window;
      confine_cost;
      queues = Hashtbl.create 8;
      callbacks = Hashtbl.create 32;
      vrt = Hashtbl.create 8;
      done_count = Hashtbl.create 8;
      vtime = 0.0;
      rr_order = [];
      sandboxed = None;
      unsandboxing = false;
      phase = Normal;
      drain_started = Time.zero;
      drain_busy_mark = 0.0;
      serve_started = Time.zero;
      intervals = [];
      interval_open = None;
      on_start = (fun () -> ());
      on_stop = (fun () -> ());
      latencies = Trace.events ?retention ();
      log = Trace.events ?retention ();
      blocked_submitters = [];
      share_bus = Bus.create ();
      gates = Hashtbl.create 4;
      gate_pump = Sim.none;
      gate_at = Time.zero;
      tm_track = "kernel.accel." ^ Accel.name dev;
      tm_dispatched =
        Tm.counter (Printf.sprintf "accel.%s.dispatched" (Accel.name dev));
      tm_completed =
        Tm.counter (Printf.sprintf "accel.%s.completed" (Accel.name dev));
      tm_lat =
        Tm.histogram
          (Printf.sprintf "accel.%s.dispatch_latency_us" (Accel.name dev))
          ~edges:[| 10.; 100.; 1_000.; 10_000.; 100_000. |];
      tm_gate_wakeups =
        Tm.counter (Printf.sprintf "accel.%s.gate_wakeups" (Accel.name dev));
    }
  in
  Accel.set_on_complete dev (fun cmd -> on_device_complete d cmd);
  d

let share_bus d = d.share_bus

let set_rate d ~app limit =
  (match limit with
  | None -> Hashtbl.remove d.gates app
  | Some r ->
      let r = Float.max r 1e-9 in
      (match Hashtbl.find_opt d.gates app with
      | Some g -> g.g_rate <- r
      | None -> Hashtbl.add d.gates app { g_rate = r; g_next = Time.zero }));
  (if Tt.recording () then
     let now = Sim.now d.sim in
     match limit with
     | Some r ->
         Tt.instant ~track:d.tm_track ~lane:"gate"
           ~name:("set-rate app" ^ string_of_int app)
           ~args:[ ("units_per_s", r) ]
           now
     | None ->
         Tt.instant ~track:d.tm_track ~lane:"gate"
           ~name:("clear-rate app" ^ string_of_int app)
           now);
  pump d

let rate d ~app =
  match Hashtbl.find_opt d.gates app with
  | Some g -> Some g.g_rate
  | None -> None

let gated_until d ~app =
  match Hashtbl.find_opt d.gates app with
  | Some g when g.g_next > Sim.now d.sim -> Some g.g_next
  | Some _ | None -> None

(* Whether a submission from [app] would block in the driver right now:
   with SGX-style syscall-context dispatch ([Lock_requests]), a foreign
   app's submission cannot be accepted while a balloon holds the queue for
   someone else — the locking request itself is buffered, stalling the
   submitting task (§5). Adreno-style per-process queues accept it
   asynchronously. *)
let submission_blocks d ~app =
  d.buffering = Lock_requests
  &&
  match d.sandboxed with
  | Some star -> star <> app && (d.phase = Serve || d.phase = Drain_others)
  | None -> false

let submit d ?(on_accepted = fun () -> ()) ~app cmd ~on_complete =
  if submission_blocks d ~app then
    d.blocked_submitters <-
      (fun () -> on_accepted ()) :: d.blocked_submitters;
  let p = { p_cmd = cmd; p_cb = on_complete; p_enqueued = Sim.now d.sim } in
  (* CFS-style wake placement: an app returning from idle does not bank
     credit — it resumes just below the virtual-time frontier (the wake
     bonus gives light, interactive apps dispatch priority over device
     hogs). An app billed ahead of the frontier — e.g. a sandboxed one that
     paid for balloon exclusivity — keeps its debt. *)
  let was_idle =
    Queue.is_empty (queue_of d app) && Accel.in_flight_of d.dev ~app = 0
  in
  if was_idle then begin
    let bonus = 0.002 *. units_f d in
    Hashtbl.replace d.vrt app (Float.max (vrt_of d app) (d.vtime -. bonus))
  end;
  Queue.push p (queue_of d app);
  if not (submission_blocks d ~app) then on_accepted ();
  pump d

let sandbox d ~app =
  (match d.sandboxed with
  | Some a when a <> app ->
      invalid_arg "Accel_driver.sandbox: another app is already sandboxed"
  | Some _ | None -> ());
  d.sandboxed <- Some app;
  d.unsandboxing <- false;
  pump d

let unsandbox d =
  match d.sandboxed with
  | None -> ()
  | Some _ -> (
      match d.phase with
      | Normal ->
          d.sandboxed <- None;
          pump d
      | Drain_others ->
          (* no balloon opened yet; fall back to normal dispatch *)
          d.sandboxed <- None;
          d.phase <- Normal;
          pump d
      | Serve ->
          d.unsandboxing <- true;
          d.phase <- Drain_psbox;
          check_drain d
      | Drain_psbox ->
          d.unsandboxing <- true;
          check_drain d)

let set_balloon_listener d ~on_start ~on_stop =
  d.on_start <- on_start;
  d.on_stop <- on_stop

let balloon_intervals d = List.rev d.intervals
let balloon_open d = d.interval_open <> None
let dispatch_latencies_us d = Trace.values d.latencies
let completed_commands d = Trace.values d.log
