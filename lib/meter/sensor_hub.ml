open Psbox_engine

type batch = { size : int; on_done : unit -> unit }

(* The hub's draw while processing a batch. *)
let active_w = 0.013

type t = {
  sim : Sim.t;
  samples_per_sec : float;
  rail : Psbox_hw.Power_rail.t;
  queue : batch Queue.t;
  mutable running : bool;
  mutable processed : int;
}

let create sim ?(samples_per_sec = 250_000.0) () =
  {
    sim;
    samples_per_sec;
    rail = Psbox_hw.Power_rail.create sim ~name:"sensor-hub" ~idle_w:0.0002;
    queue = Queue.create ();
    running = false;
    processed = 0;
  }

let rail hub = hub.rail
let busy hub = hub.running
let processed hub = hub.processed

let rec start_next hub =
  match Queue.take_opt hub.queue with
  | None ->
      hub.running <- false;
      Psbox_hw.Power_rail.set_power hub.rail (Psbox_hw.Power_rail.idle_w hub.rail)
  | Some batch ->
      hub.running <- true;
      Psbox_hw.Power_rail.set_power hub.rail active_w;
      let dur = Time.of_sec_f (float_of_int batch.size /. hub.samples_per_sec) in
      ignore
        (Sim.schedule_after hub.sim (max 1 dur) (fun () ->
             hub.processed <- hub.processed + batch.size;
             batch.on_done ();
             start_next hub))

let process hub ~samples ~on_done =
  if samples < 0 then invalid_arg "Sensor_hub.process: negative batch";
  Queue.push { size = samples; on_done } hub.queue;
  if not hub.running then start_next hub

let energy_j hub ~from ~until = Psbox_hw.Power_rail.energy_j hub.rail ~from ~until
