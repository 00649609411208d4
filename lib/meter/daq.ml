open Psbox_engine

type t = { period : Time.span; noise_w : float; rng : Rng.t option }

let create ?(rate_hz = 100_000) ?(noise_w = 0.0) ?rng () =
  if rate_hz <= 0 then invalid_arg "Daq.create: rate must be positive";
  if noise_w > 0.0 && rng = None then
    invalid_arg "Daq.create: noise requires an rng";
  { period = 1_000_000_000 / rate_hz; noise_w; rng }

let period daq = daq.period

let noisy daq w =
  match daq.rng with
  | Some rng when daq.noise_w > 0.0 ->
      Float.max 0.0 (w +. Rng.gaussian rng ~mu:0.0 ~sigma:daq.noise_w)
  | Some _ | None -> w

let capture daq rail ~from ~until =
  let tl = Psbox_hw.Power_rail.timeline rail in
  let n = max (((until - from) / daq.period) + 1) 0 in
  let out = Array.make n (Sample.make from 0.0) in
  let k = ref 0 in
  Timeline.iter_samples tl ~period:daq.period ~from ~until ~f:(fun t w ->
      out.(!k) <- Sample.make t (noisy daq w);
      incr k);
  out
