open Psbox_engine
module Accel = Psbox_hw.Accel
module Ts = Temporal_sched
module Tm = Psbox_telemetry.Metrics
module Tt = Psbox_telemetry.Tracing

type buffering = Lock_requests | Per_process_queues

type t = {
  dev : Accel.t;
  sched : Accel.command Ts.t;
  buffering : buffering;
  done_count : (int, int) Hashtbl.t;
  blocked_submitters : (unit -> unit) list ref;
      (* SGX-style [Lock_requests] stacks: submissions that arrived while a
         foreign balloon held the queue, to be accepted at flush-others *)
}

let device d = d.dev
let sched d = d.sched

let completed d ~app =
  match Hashtbl.find_opt d.done_count app with Some n -> n | None -> 0

(* Whether a submission from [app] would block in the driver right now:
   with SGX-style syscall-context dispatch ([Lock_requests]), a foreign
   app's submission cannot be accepted while a balloon holds the queue for
   someone else — the locking request itself is buffered, stalling the
   submitting task (§5). Adreno-style per-process queues accept it
   asynchronously. *)
let submission_blocks d ~app =
  d.buffering = Lock_requests
  &&
  match Ts.sandboxed d.sched with
  | Some star -> (
      star <> app
      && match Ts.phase d.sched with
         | Serve | Drain_others -> true
         | Normal | Drain_psbox -> false)
  | None -> false

let submit d ?(on_accepted = fun () -> ()) ~app cmd ~on_complete =
  let blocks = submission_blocks d ~app in
  if blocks then d.blocked_submitters := on_accepted :: !(d.blocked_submitters);
  Ts.enqueue d.sched ~app cmd ~on_done:on_complete;
  if not blocks then on_accepted ();
  Ts.pump d.sched

let create sim dev ?(buffering = Per_process_queues) ?(window = 2)
    ?(confine_cost = true) () =
  if window <= 0 then invalid_arg "Accel_driver.create: window must be positive";
  let name = Accel.name dev in
  let units = float_of_int (Accel.units dev) in
  let track = "kernel.accel." ^ name in
  let tm_dispatched = Tm.counter (Printf.sprintf "accel.%s.dispatched" name) in
  let tm_completed = Tm.counter (Printf.sprintf "accel.%s.completed" name) in
  let done_count = Hashtbl.create 8 in
  let blocked_submitters = ref [] in
  let drain_started = ref Time.zero and drain_busy_mark = ref 0.0 in
  let device =
    {
      Ts.in_flight = (fun () -> Accel.in_flight dev);
      in_flight_of = (fun app -> Accel.in_flight_of dev ~app);
      submit =
        (fun cmd ->
          Tm.incr_in (Sim.metrics sim) tm_dispatched;
          Accel.submit dev cmd);
      item_id = (fun cmd -> cmd.Accel.id);
      gate_span =
        (fun cmd rate ->
          Time.of_sec_f (cmd.Accel.work_s *. float_of_int cmd.Accel.units /. rate));
    }
  in
  (* With [confine_cost], the sandboxed app pays for the capacity lost
     while draining others and for whole serve windows, instead of per
     command; disabling it is the ablation that lets a sandboxed app hurt
     its neighbours. *)
  let hooks =
    {
      Ts.on_drain =
        (fun _ ->
          drain_started := Sim.now sim;
          drain_busy_mark := Accel.busy_unit_seconds dev);
      on_serve =
        (fun s app ->
          if confine_cost then
            let dur = Time.to_sec_f (Sim.now sim - !drain_started) in
            let busy = Accel.busy_unit_seconds dev -. !drain_busy_mark in
            Ts.bill s ~app (Float.max 0.0 ((dur *. units) -. busy)));
      on_serve_end =
        (fun s app ->
          if confine_cost then
            let dur = Time.to_sec_f (Sim.now sim - Ts.serve_started s) in
            Ts.bill s ~app (dur *. units));
      (* the whole-device time accrued so far this serve window counts *)
      serve_credit =
        (fun s app ->
          let base = Ts.credit s ~app in
          match Ts.phase s with
          | Serve | Drain_psbox ->
              base +. (Time.to_sec_f (Sim.now sim - Ts.serve_started s) *. units)
          | Normal | Drain_others -> base);
      on_done =
        (fun s cmd ->
          let app = cmd.Accel.app in
          Tm.incr_in (Sim.metrics sim) tm_completed;
          (* guard keeps the lane-string allocation off the untraced path *)
          (if Tt.recording_in (Sim.tracer sim) then
             match (cmd.Accel.started_at, cmd.Accel.finished_at) with
             | Some t0, Some t1 ->
                 Tt.span ~track ~lane:("app" ^ string_of_int app)
                   ~name:cmd.Accel.kind ~start:t0 ~stop:t1 ()
             | _ -> ());
          Hashtbl.replace done_count app
            ((match Hashtbl.find_opt done_count app with Some n -> n | None -> 0) + 1);
          let sandbox_billed =
            confine_cost
            && (match Ts.sandboxed s with Some a -> a = app | None -> false)
            && match Ts.phase s with
               | Serve | Drain_psbox -> true
               | Normal | Drain_others -> false
          in
          if not sandbox_billed then
            let occupancy =
              match (cmd.Accel.started_at, cmd.Accel.finished_at) with
              | Some t0, Some t1 ->
                  Time.to_sec_f (t1 - t0) *. float_of_int cmd.Accel.units
              | _ -> cmd.Accel.work_s *. float_of_int cmd.Accel.units
            in
            Ts.bill s ~app occupancy);
      on_close =
        (fun _ ->
          let blocked = List.rev !blocked_submitters in
          blocked_submitters := [];
          List.iter (fun release -> release ()) blocked);
    }
  in
  let sched =
    Ts.create sim ~rail:(Accel.rail dev) ~window ~wake_bonus:(0.002 *. units)
      ~name:("accel." ^ name) ~rate_arg:"units_per_s" device hooks
  in
  Accel.set_on_complete dev (fun cmd -> Ts.complete sched ~app:cmd.Accel.app cmd);
  { dev; sched; buffering; done_count; blocked_submitters }
