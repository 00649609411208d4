open Psbox_engine
module Sample = Psbox_meter.Sample
module Sensor_hub = Psbox_meter.Sensor_hub
module System = Psbox_kernel.System

type predicate =
  | Above of { watts : float; lasting : Time.span }
  | Below of { watts : float; lasting : Time.span }
  | Spike of { delta_w : float; within : Time.span }
  | Rising of { lasting : Time.span }

(* First time a [cmp]-satisfying stretch reaches [lasting]. *)
let stretch samples ~lasting ~ok =
  let n = Array.length samples in
  let rec scan i start =
    if i >= n then None
    else if ok samples.(i).Sample.watts then begin
      let s = match start with Some s -> s | None -> samples.(i).Sample.time in
      if samples.(i).Sample.time - s >= lasting then Some s
      else scan (i + 1) (Some s)
    end
    else scan (i + 1) None
  in
  scan 0 None

let evaluate pred samples =
  match pred with
  | Above { watts; lasting } -> stretch samples ~lasting ~ok:(fun w -> w > watts)
  | Below { watts; lasting } -> stretch samples ~lasting ~ok:(fun w -> w < watts)
  | Spike { delta_w; within } ->
      let n = Array.length samples in
      let rec scan i =
        if i >= n then None
        else begin
          (* compare against the minimum inside the trailing window *)
          let rec back j lo =
            if j < 0 || samples.(i).Sample.time - samples.(j).Sample.time > within
            then lo
            else back (j - 1) (Float.min lo samples.(j).Sample.watts)
          in
          let lo = back (i - 1) Float.infinity in
          if samples.(i).Sample.watts -. lo >= delta_w then
            Some samples.(i).Sample.time
          else scan (i + 1)
        end
      in
      scan 1
  | Rising { lasting } ->
      let n = Array.length samples in
      let rec scan i start_idx =
        if i >= n then None
        else if samples.(i).Sample.watts >= samples.(i - 1).Sample.watts then begin
          let s = match start_idx with Some s -> s | None -> i - 1 in
          if
            samples.(i).Sample.time - samples.(s).Sample.time >= lasting
            && samples.(i).Sample.watts > samples.(s).Sample.watts
          then Some samples.(s).Sample.time
          else scan (i + 1) (Some s)
        end
        else scan (i + 1) None
      in
      if n < 2 then None else scan 1 None

type subscription = { mutable count : int; tick : Sim.timer }

(* The polling period and the sample period within it. *)
let period = Time.ms 50
let sample_period = Time.ms 1

let subscribe ?hub sys box ~predicate callback =
  let sim = System.sim sys in
  let sub = { count = 0; tick = Sim.timer sim period } in
  let fire t =
    sub.count <- sub.count + 1;
    callback t
  in
  let rec tick () =
    Sim.arm sub.tick tick;
    if Psbox.inside box then begin
      let samples = Psbox.sample ~period:sample_period box in
      (* only this period's window *)
      let now = Sim.now sim in
      let window = Sample.between samples ~from:(now - period) ~until:now in
      let deliver () =
        if Sim.timer_state sub.tick <> Sim.Stopped then
          match evaluate predicate window with
          | Some t -> fire t
          | None -> ()
      in
      match hub with
      | Some h ->
          Sensor_hub.process h ~samples:(Array.length window) ~on_done:deliver
      | None -> deliver ()
    end
  in
  Sim.arm sub.tick tick;
  sub

let cancel sub = Sim.stop_timer sub.tick

let fired sub = sub.count
