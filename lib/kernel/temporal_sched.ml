open Psbox_engine
module Tm = Psbox_telemetry.Metrics
module Tt = Psbox_telemetry.Tracing

type phase = Normal | Drain_others | Serve | Drain_psbox
type share_change = {
  mutable at : Time.t;
  mutable app : int;
  mutable share : int;
}

type 'item device = {
  in_flight : unit -> int;
  in_flight_of : int -> int;
  submit : 'item -> unit;
  item_id : 'item -> int;
  gate_span : 'item -> float -> Time.span;
}

type 'item pending = {
  p_item : 'item;
  p_cb : 'item -> unit;
  p_enqueued : Time.t;
}

(* Leaky-bucket rate gate: [g_next] is the earliest instant the app may
   dispatch again; each dispatch pushes it out by the item's gate span. *)
type gate = { mutable g_rate : float; mutable g_next : Time.t }

type 'item t = {
  sim : Sim.t;
  dev : 'item device;
  hooks : 'item hooks;
  rail : Psbox_hw.Power_rail.t;
  window : int;
  wake_bonus : float;
  queues : (int, 'item pending Queue.t) Hashtbl.t;
  callbacks : (int, 'item pending) Hashtbl.t; (* item id -> pending *)
  credit : (int, float) Hashtbl.t;
  mutable vtime : float; (* fair-queueing virtual time *)
  mutable sandboxed : int option;
  mutable unsandboxing : bool;
  mutable phase : phase;
  mutable serve_started : Time.t;
  mutable intervals : (Time.t * Time.t) list; (* newest first *)
  mutable on_start : unit -> unit;
  mutable on_stop : Time.t -> unit;
  latencies : (int * float) Trace.events; (* stamped at dispatch *)
  log : 'item Trace.events; (* completed items *)
  share_bus : share_change Bus.t;
  share : share_change; (* the one record [share_bus] carries *)
  gates : (int, gate) Hashtbl.t;
  mutable gate_pump : Sim.handle; (* armed wakeup, Sim.none when idle *)
  mutable gate_at : Time.t; (* instant gate_pump is aimed at *)
  (* telemetry: handles resolved once at create *)
  track : string;
  rate_arg : string;
  tm_lat : Tm.histogram;
  tm_gate_wakeups : Tm.counter;
}

and 'item hooks = {
  on_drain : 'item t -> unit;
  on_serve : 'item t -> int -> unit;
  on_serve_end : 'item t -> int -> unit;
  serve_credit : 'item t -> int -> float;
  on_done : 'item t -> 'item -> unit;
  on_close : 'item t -> unit;
}

let sandboxed t = t.sandboxed
let phase t = t.phase
let serve_started t = t.serve_started
let rail t = t.rail
let share_bus t = t.share_bus

let is_sandboxed t app =
  match t.sandboxed with Some a -> a = app | None -> false

let queue_of t app =
  match Hashtbl.find_opt t.queues app with
  | Some q -> q
  | None ->
      let q = Queue.create () in
      Hashtbl.add t.queues app q;
      q

let credit_of t app =
  match Hashtbl.find_opt t.credit app with
  | Some c -> c
  | None ->
      Hashtbl.add t.credit app t.vtime;
      t.vtime

let bill t ~app delta = Hashtbl.replace t.credit app (credit_of t app +. delta)
let credit t ~app = credit_of t app
let pending t ~app = Queue.length (queue_of t app)

let fold_queued t f init =
  Hashtbl.fold
    (fun app q acc -> Queue.fold (fun acc p -> f acc app p.p_item) acc q)
    t.queues init

(* Apps with at least one buffered item. *)
let backlogged t =
  Hashtbl.fold (fun app q acc -> if Queue.is_empty q then acc else app :: acc) t.queues []

let eligible t app =
  match Hashtbl.find_opt t.gates app with
  | Some g -> g.g_next <= Sim.now t.sim
  | None -> true

let charge_gate t app item =
  match Hashtbl.find_opt t.gates app with
  | Some g ->
      let now = Sim.now t.sim in
      let base = if g.g_next > now then g.g_next else now in
      g.g_next <- base + t.dev.gate_span item g.g_rate
  | None -> ()

(* Least credit first. Rate-gated apps sit out the pick until their gate
   reopens; the sandboxed app is exempt (balloons are psbox's own
   enforcement path). *)
let pick_app t =
  match
    List.filter (fun a -> is_sandboxed t a || eligible t a) (backlogged t)
  with
  | [] -> None
  | apps ->
      Some
        (List.fold_left
           (fun best app -> if credit_of t app < credit_of t best then app else best)
           (List.hd apps) (List.tl apps))

let publish_share t app =
  let c = t.share in
  c.at <- Sim.now t.sim;
  c.app <- app;
  c.share <- t.dev.in_flight_of app;
  Bus.publish t.share_bus c

(* The balloon yields when another app is waiting and either psbox is being
   left, the sandboxed app has nothing left to run, or a waiting app whose
   gate is open has less credit than the sandboxed app's in-serve credit.
   A gated app cannot take the device before its gate reopens: yielding to
   it would reopen the balloon at once, forever at the same instant. *)
let should_yield t app =
  let others = List.filter (fun a -> a <> app) (backlogged t) in
  match others with
  | [] -> false
  | _ ->
      t.unsandboxing
      || (Queue.is_empty (queue_of t app) && t.dev.in_flight_of app = 0)
      ||
      let mine = t.hooks.serve_credit t app in
      List.exists (fun a -> eligible t a && credit_of t a < mine) others

(* The virtual-time frontier: the least credit among apps still competing
   (queued in the driver or with items in flight on the device). Wake
   placement uses it so idle periods don't bank credit, without robbing a
   backlogged-but-in-flight app of its entitlement. *)
let active_floor t =
  let floor = ref None in
  Hashtbl.iter
    (fun app q ->
      if (not (Queue.is_empty q)) || t.dev.in_flight_of app > 0 then begin
        let c = credit_of t app in
        match !floor with
        | Some f when f <= c -> ()
        | _ -> floor := Some c
      end)
    t.queues;
  !floor

let dispatch t app =
  (* advance the frontier before popping, while the dispatched app still
     counts as active; serve-phase dispatches are billed by the device's
     hooks and would distort it *)
  (if t.phase <> Serve then
     match active_floor t with
     | Some f -> t.vtime <- Float.max t.vtime f
     | None -> ());
  let p = Queue.pop (queue_of t app) in
  let lat = Time.to_us_f (Sim.now t.sim - p.p_enqueued) in
  Trace.emit t.latencies (Sim.now t.sim) (app, lat);
  Tm.observe_in (Sim.metrics t.sim) t.tm_lat lat;
  Hashtbl.replace t.callbacks (t.dev.item_id p.p_item) p;
  charge_gate t app p.p_item;
  t.dev.submit p.p_item;
  publish_share t app

let rec pump t =
  match t.phase with
  | Drain_others | Drain_psbox -> ()
  | Serve -> (
      match t.sandboxed with
      | None ->
          t.phase <- Normal;
          pump t
      | Some app ->
          if should_yield t app then begin
            t.phase <- Drain_psbox;
            check_drain t
          end
          else if
            t.dev.in_flight () < t.window && not (Queue.is_empty (queue_of t app))
          then begin
            dispatch t app;
            pump t
          end)
  | Normal ->
      if t.dev.in_flight () < t.window then begin
        match pick_app t with
        | Some app when is_sandboxed t app ->
            t.phase <- Drain_others;
            t.hooks.on_drain t;
            check_drain t
        | Some app ->
            dispatch t app;
            pump t
        | None -> arm_gate_pump t
      end

(* Nothing is dispatchable right now, but a gated backlogged app may become
   eligible later: keep exactly one wakeup armed at the earliest gate
   reopening, else a rate-capped app whose co-runners go quiet would stall
   until the next unrelated device event. *)
and arm_gate_pump t =
  let next =
    List.fold_left
      (fun acc app ->
        match Hashtbl.find_opt t.gates app with
        | Some g when g.g_next > Sim.now t.sim -> (
            match acc with
            | Some at when at <= g.g_next -> acc
            | Some _ | None -> Some g.g_next)
        | Some _ | None -> acc)
      None (backlogged t)
  in
  match next with
  | None -> ()
  | Some at ->
      if Sim.is_none t.gate_pump || t.gate_at > at then begin
        Sim.cancel t.sim t.gate_pump;
        t.gate_at <- at;
        t.gate_pump <-
          Sim.schedule_at t.sim at (fun () ->
              t.gate_pump <- Sim.none;
              Tm.incr_in (Sim.metrics t.sim) t.tm_gate_wakeups;
              pump t)
      end

and check_drain t =
  match t.phase with
  | Drain_others -> if t.dev.in_flight () = 0 then enter_serve t
  | Drain_psbox -> if t.dev.in_flight () = 0 then exit_serve t
  | Normal | Serve -> ()

and enter_serve t =
  (match t.sandboxed with Some app -> t.hooks.on_serve t app | None -> ());
  t.phase <- Serve;
  t.serve_started <- Sim.now t.sim;
  t.on_start ();
  pump t

and exit_serve t =
  (match t.sandboxed with Some app -> t.hooks.on_serve_end t app | None -> ());
  let t0 = t.serve_started and now = Sim.now t.sim in
  t.intervals <- (t0, now) :: t.intervals;
  (if Tt.recording_in (Sim.tracer t.sim) then
     let name =
       match t.sandboxed with
       | Some a -> "serve app" ^ string_of_int a
       | None -> "serve"
     in
     Tt.span ~track:t.track ~lane:"balloon" ~name ~start:t0 ~stop:now ());
  t.on_stop t0;
  t.phase <- Normal;
  if t.unsandboxing then begin
    t.sandboxed <- None;
    t.unsandboxing <- false
  end;
  (* flush-others: the device releases what it held back *)
  t.hooks.on_close t;
  pump t

(* CFS-style wake placement: an app returning from idle does not bank
   credit — it resumes [wake_bonus] below the virtual-time frontier. An app
   billed ahead of the frontier — e.g. a sandboxed one that paid for
   balloon exclusivity — keeps its debt. *)
let enqueue t ~app ?(wake = true) item ~on_done =
  let q = queue_of t app in
  if wake && Queue.is_empty q && t.dev.in_flight_of app = 0 then
    Hashtbl.replace t.credit app
      (Float.max (credit_of t app) (t.vtime -. t.wake_bonus));
  Queue.push { p_item = item; p_cb = on_done; p_enqueued = Sim.now t.sim } q

let bypass t item ~on_done =
  Hashtbl.replace t.callbacks (t.dev.item_id item)
    { p_item = item; p_cb = on_done; p_enqueued = Sim.now t.sim };
  t.dev.submit item

let complete t ~app item =
  Trace.emit t.log (Sim.now t.sim) item;
  publish_share t app;
  let id = t.dev.item_id item in
  (match Hashtbl.find_opt t.callbacks id with
  | Some p ->
      Hashtbl.remove t.callbacks id;
      t.hooks.on_done t item;
      p.p_cb item
  | None -> ());
  check_drain t;
  pump t

let create sim ~rail ~window ~wake_bonus ~name ~rate_arg dev hooks =
  let retention = Timeline.retention (Psbox_hw.Power_rail.timeline rail) in
  {
    sim;
    dev;
    hooks;
    rail;
    window;
    wake_bonus;
    queues = Hashtbl.create 8;
    callbacks = Hashtbl.create 32;
    credit = Hashtbl.create 8;
    vtime = 0.0;
    sandboxed = None;
    unsandboxing = false;
    phase = Normal;
    serve_started = Time.zero;
    intervals = [];
    on_start = (fun () -> ());
    on_stop = ignore;
    latencies = Trace.events ?retention ();
    log = Trace.events ?retention ();
    share_bus = Bus.create ();
    share = { at = Time.zero; app = 0; share = 0 };
    gates = Hashtbl.create 4;
    gate_pump = Sim.none;
    gate_at = Time.zero;
    track = "kernel." ^ name;
    rate_arg;
    tm_lat =
      Tm.histogram (name ^ ".dispatch_latency_us")
        ~edges:[| 10.; 100.; 1_000.; 10_000.; 100_000. |];
    tm_gate_wakeups = Tm.counter (name ^ ".gate_wakeups");
  }

let set_rate t ~app limit =
  (match limit with
  | None -> Hashtbl.remove t.gates app
  | Some r ->
      let r = Float.max r 1e-9 in
      (match Hashtbl.find_opt t.gates app with
      | Some g -> g.g_rate <- r
      | None -> Hashtbl.add t.gates app { g_rate = r; g_next = Time.zero }));
  (if Tt.recording_in (Sim.tracer t.sim) then
     let now = Sim.now t.sim in
     match limit with
     | Some r ->
         Tt.instant ~track:t.track ~lane:"gate"
           ~name:("set-rate app" ^ string_of_int app)
           ~args:[ (t.rate_arg, r) ]
           now
     | None ->
         Tt.instant ~track:t.track ~lane:"gate"
           ~name:("clear-rate app" ^ string_of_int app)
           now);
  pump t

let rate t ~app =
  match Hashtbl.find_opt t.gates app with
  | Some g -> Some g.g_rate
  | None -> None

let gated_until t ~app =
  match Hashtbl.find_opt t.gates app with
  | Some g when g.g_next > Sim.now t.sim -> Some g.g_next
  | Some _ | None -> None

let sandbox t ~app =
  (match t.sandboxed with
  | Some a when a <> app ->
      invalid_arg "Temporal_sched.sandbox: another app is already sandboxed"
  | Some _ | None -> ());
  t.sandboxed <- Some app;
  t.unsandboxing <- false;
  pump t

let unsandbox t =
  match t.sandboxed with
  | None -> ()
  | Some _ -> (
      match t.phase with
      | Normal ->
          t.sandboxed <- None;
          pump t
      | Drain_others ->
          (* no balloon opened yet; fall back to normal dispatch *)
          t.sandboxed <- None;
          t.phase <- Normal;
          pump t
      | Serve ->
          t.unsandboxing <- true;
          t.phase <- Drain_psbox;
          check_drain t
      | Drain_psbox ->
          t.unsandboxing <- true;
          check_drain t)

let set_balloon_listener t ~on_start ~on_stop =
  t.on_start <- on_start;
  t.on_stop <- on_stop

let balloon_intervals t = List.rev t.intervals
(* The balloon opens as the phase turns to [Serve] and closes as
   drain-psbox ends. *)
let balloon_open_since t =
  match t.phase with
  | Serve | Drain_psbox -> Some t.serve_started
  | Normal | Drain_others -> None

let balloon_open t = balloon_open_since t <> None
let dispatch_latencies_us t = Trace.values t.latencies
let completed_items t = Trace.values t.log
