(* Per-layer probes, run after the ops of a traced run. Each prices one
   layer from outside, by timing calls into its public functions, and
   records a span around every call it times. The numbers do not depend
   on the workload being run: they are the same probes every time, seeded
   by the run's seed. *)

open Workloads

type sizes = {
  devices : int;  (** fleet probe population *)
  ladder_s : int;  (** simulated seconds timed per ladder leg *)
  passes : int;  (** interleaved ladder passes; each leg keeps its min *)
  leak_s : int;  (** simulated seconds over which soak retention is read *)
  churn : int;  (** machines created per churn batch (20 batches) *)
}

let full = { devices = 400; ladder_s = 60; passes = 5; leak_s = 100; churn = 50 }
let quick = { devices = 8; ladder_s = 10; passes = 3; leak_s = 10; churn = 10 }

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* One regeneration in a fresh process: per-experiment time (the median
   of every span of that name in the run, so a traced paper run
   contributes its own children too), render time, retained heap. *)
let experiments ~seed =
  let c = Spans.with_ "probe.paper" (fun () -> run_child ~seed ~traced:true) in
  List.map
    (fun e ->
      let id = e.Registry.e_id in
      ("paper." ^ id ^ "_s", Spans.median (Spans.durations ("paper." ^ id))))
    Registry.all
  @ [
      ("report.render_ms", 1e3 *. Spans.median (Spans.durations "report.render"));
      ("mem.retained_mb_per_regen", c.c_live_words *. word_mb);
    ]

(* A population at jobs N, its reduction and rendering, then the same
   devices one run_device call at a time: per-device latency and the
   parallel scaling efficiency. *)
let fleet sz ~seed =
  let live0 = live_words () in
  let s, t_par =
    let devs, t =
      timed (fun () ->
          Spans.with_ "fleet.run_devices" (fun () ->
              Fleet.run_devices ~jobs ~health:true ~scenario ~devices:sz.devices
                ~seed ()))
    in
    (Fleet.summarize ~scenario ~seed devs, t)
  in
  (* what the run leaves behind besides its summary *)
  let retained_kw = (live_words () -. live0) /. 1e3 in
  let reps name f =
    Spans.median
      (List.init 5 (fun _ -> snd (timed (fun () -> Spans.with_ name f))))
  in
  let summarize_s =
    (* the devices are rebuilt once, outside the timed calls *)
    let devs =
      Fleet.run_devices ~jobs ~health:true ~scenario ~devices:sz.devices ~seed ()
    in
    reps "fleet.summarize" (fun () ->
        ignore (Fleet.summarize ~scenario ~seed devs))
  in
  let json_s = reps "fleet.json_string" (fun () -> ignore (Fleet.json_string s)) in
  let per_device =
    List.init sz.devices (fun i ->
        snd
          (timed (fun () ->
               Spans.with_ "fleet.run_device" (fun () ->
                   ignore
                     (Fleet.run_device ~health:true ~scenario ~fleet_seed:seed i)))))
  in
  let t_seq = List.fold_left ( +. ) 0.0 per_device in
  [
    ("fleet.run_devices_s", t_par);
    ("fleet.summarize_ms", 1e3 *. summarize_s);
    ("fleet.json_ms", 1e3 *. json_s);
    ("fleet.device_p50_ms", 1e3 *. Spans.median per_device);
    ("fleet.device_tail_ms", 1e3 *. Spans.quantile 0.975 per_device);
    ("fleet.scaling_eff", t_seq /. (float_of_int jobs *. t_par));
    ("mem.retained_kw_per_run", retained_kw);
  ]

(* ---- the soak layer ladder ------------------------------------------- *)

type leg = {
  leg : string;
  telemetry : bool;
  audit : bool;
  model : bool;
  health : bool;
  pooling : bool;
}

let bare =
  { leg = "bare"; telemetry = false; audit = false; model = false;
    health = false; pooling = true }

(* Each step turns one more layer on through its public switch; the
   no-pool leg is the bare machine with event-slot pooling off. *)
let legs =
  let tel = { bare with leg = "telemetry"; telemetry = true } in
  let aud = { tel with leg = "audit"; audit = true } in
  let mdl = { aud with leg = "model"; model = true } in
  let hlt = { mdl with leg = "health"; health = true } in
  [ bare; tel; aud; mdl; hlt; { bare with leg = "nopool"; pooling = false } ]

type measured = { wall : float; words : float; fired : float }

let run_leg sz ~seed l =
  Psbox_telemetry.set_enabled l.telemetry;
  if l.audit then Audit.enable () else Audit.disable ();
  Psbox_engine.Sim.set_default_pooling l.pooling;
  let m = machine ~model:l.model ~health:l.health ~seed () in
  Gc.full_major ();
  let f0 = Option.value ~default:0.0 (Metrics.find "sim.events_fired") in
  let w0 = Gc.minor_words () in
  let (), wall =
    timed (fun () ->
        Spans.with_ ("ladder." ^ l.leg) (fun () ->
            System.run_for m.sys (T.sec sz.ladder_s)))
  in
  let words = Gc.minor_words () -. w0 in
  let fired = Option.value ~default:0.0 (Metrics.find "sim.events_fired") -. f0 in
  let check_s =
    if l.audit then
      snd (timed (fun () -> Spans.with_ "audit.check" (fun () -> ignore (audit_ok m))))
    else nan
  in
  ({ wall; words; fired }, check_s, m.fit_s)

(* Legs run interleaved, [passes] times; each keeps its minimum. A
   marginal is unresolved when it is smaller than the pass-to-pass spread
   of either leg it is the difference of. *)
let ladder sz ~seed =
  let audit_was = Audit.enabled () in
  let runs =
    List.concat_map
      (fun _ -> List.map (fun l -> (l.leg, run_leg sz ~seed l)) legs)
      (List.init sz.passes Fun.id)
  in
  Psbox_telemetry.set_enabled true;
  Psbox_engine.Sim.set_default_pooling true;
  if audit_was then Audit.enable () else Audit.disable ();
  let of_leg name = List.filter_map (fun (n, r) -> if n = name then Some r else None) runs in
  (* a leg's minimum over passes, and the gap to its second-fastest pass:
     how far the minimum itself may be off *)
  let stat name f =
    let a = Spans.sorted (List.map (fun (r, _, _) -> f r) (of_leg name)) in
    (a.(0), a.(1) -. a.(0))
  in
  (* telemetry is a pure observer and adds no events, so the telemetry
     leg's count is the bare kernel's *)
  let events = fst (stat "telemetry" (fun r -> r.fired)) in
  let per_event x = 1e9 *. x /. events in
  let unresolved = ref 0 in
  let marginal prefix ~base ~leg =
    let ns, spread = stat leg (fun r -> r.wall) in
    let ns0, spread0 = stat base (fun r -> r.wall) in
    let d = ns -. ns0 in
    if Float.abs d < Float.max spread spread0 then incr unresolved;
    let w = fst (stat leg (fun r -> r.words)) -. fst (stat base (fun r -> r.words)) in
    [
      (prefix ^ "marginal_ns_per_event", per_event d);
      (prefix ^ "marginal_words_per_event", w /. events);
    ]
  in
  let from_legs names f =
    Spans.median
      (List.concat_map (fun n -> List.map f (of_leg n)) names)
  in
  let rows =
    [ ("kernel.bare_ns_per_event", per_event (fst (stat "bare" (fun r -> r.wall)))) ]
    @ marginal "telemetry." ~base:"bare" ~leg:"telemetry"
    @ marginal "audit." ~base:"telemetry" ~leg:"audit"
    @ marginal "model." ~base:"audit" ~leg:"model"
    @ marginal "health." ~base:"model" ~leg:"health"
    @ marginal "engine.nopool_" ~base:"bare" ~leg:"nopool"
    @ [
        ("audit.check_ms",
         1e3 *. from_legs [ "audit"; "model"; "health" ] (fun (_, c, _) -> c));
        ("model.fit_ms", 1e3 *. from_legs [ "model"; "health" ] (fun (_, _, f) -> f));
      ]
  in
  rows @ [ ("ladder.unresolved", float_of_int !unresolved) ]

(* Live heap a fully instrumented machine keeps per simulated second,
   read past the 120 s rail retention. *)
let soak_retention sz ~seed =
  let m = soak_machine ~seed in
  let live0 = live_words () in
  Spans.with_ "system.run_for" (fun () -> System.run_for m.sys (T.sec sz.leak_s));
  let live1 = live_words () in
  (* the machine must still be reachable at the second reading *)
  ignore (Sys.opaque_identity m);
  [ ("mem.retained_kw_per_sim_s", (live1 -. live0) /. 1e3 /. float_of_int sz.leak_s) ]

(* Create, start and shut down an empty machine: the per-device fixed
   cost of a fleet. Median over 20 batches. *)
let churn sz =
  let audit_was = Audit.enabled () in
  Audit.disable ();
  let batch () =
    snd
      (timed (fun () ->
           Spans.with_ "kernel.churn" (fun () ->
               for _ = 1 to sz.churn do
                 let s = System.create () in
                 System.start s;
                 System.shutdown s
               done)))
    /. float_of_int sz.churn
  in
  let us = 1e6 *. Spans.median (List.init 20 (fun _ -> batch ())) in
  if audit_was then Audit.enable ();
  [ ("kernel.machine_churn_us", us) ]

let measure sz ~seed =
  Spans.recording := true;
  let rows =
    Spans.with_ "probe" (fun () ->
        (* in order: list operands would be evaluated right to left *)
        let churn = churn sz in
        let experiments = experiments ~seed in
        let fleet = fleet sz ~seed in
        let ladder = ladder sz ~seed in
        churn @ experiments @ fleet @ ladder @ soak_retention sz ~seed)
  in
  Spans.recording := false;
  rows
