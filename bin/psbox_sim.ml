(* psbox-sim: run the paper's experiments from the command line.

   Usage:
     psbox_sim list                    enumerate experiment ids
     psbox_sim [run] <id> ...          run one or more experiments
     psbox_sim all                     run everything, in paper order
     psbox_sim trace-check <file>      validate an exported Chrome trace

     psbox_sim fleet                   simulate a device population

   Telemetry options (on `run`, `all`, and the default command):
     --seed INT         override every experiment's built-in seed
     --trace-out FILE   record a structured trace of the run and export it
                        as Chrome trace-event JSON (chrome://tracing)
     --metrics          print the deterministic metrics snapshot afterwards
     --audit-out FILE   write the joule-audit report (per-app per-cause
                        attribution, bit-exactly conserved per rail)
     --flame-out FILE   write folded stacks (rail;app;subsystem;cause uJ)
                        for standard flamegraph tools

   The joule audit itself is always on: it is a pure observer, and
   `audit-check` plus the byte-identical experiment outputs prove it. *)

open Cmdliner
module Registry = Psbox_experiments.Registry
module Report = Psbox_experiments.Report
module Telemetry = Psbox_telemetry
module Audit = Psbox_audit.Audit
module Fleet = Psbox_fleet.Fleet
module Health = Psbox_health.Health
module System = Psbox_kernel.System

let list_cmd =
  let doc = "List the available experiments (one per paper table/figure)." in
  let run () =
    List.iter
      (fun e ->
        Printf.printf "%-12s %s\n" e.Registry.e_id e.Registry.e_title)
      Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let trace_out_arg =
  let doc =
    "Record a structured trace of the run and write it to $(docv) as Chrome \
     trace-event JSON (load it in chrome://tracing or ui.perfetto.dev)."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "After the run, print the telemetry metrics snapshot (sorted by name, \
     byte-reproducible for a given run)."
  in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let metrics_out_arg =
  let doc =
    "After the run, write the metrics snapshot to $(docv) in the \
     OpenMetrics/Prometheus text exposition format (sorted names, # TYPE \
     lines, cumulative histogram _bucket/_sum/_count rows; \
     byte-reproducible for a given run)."
  in
  Arg.(
    value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let health_out_arg =
  let doc =
    "Attach a streaming health engine (the default rule pack: model drift, \
     cap-violation SLO burn, dead-metric absence, audit conservation) to \
     every machine the run builds, observe-only, and write the merged \
     incident log to $(docv) as deterministic JSON."
  in
  Arg.(
    value & opt (some string) None & info [ "health-out" ] ~docv:"FILE" ~doc)

let audit_out_arg =
  let doc =
    "Write the joule-audit report to $(docv): per-app per-cause energy \
     attribution for every machine the run built, with per-rail sums that \
     match the kernel energy ledger bit-for-bit (verify with \
     $(b,audit-check))."
  in
  Arg.(value & opt (some string) None & info [ "audit-out" ] ~docv:"FILE" ~doc)

let pool_arg =
  let modes = [ ("on", true); ("off", false) ] in
  let doc =
    "Event-slot pooling: $(b,on) (the default; events recycle \
     generation-stamped slot records through a free list, so the steady \
     state event loop does not allocate) or $(b,off) (a fresh record per \
     event — the pre-pool baseline for A/B allocation measurements). \
     The event queue fires the same events in the same order either way, \
     so output is byte-identical ($(b,dune runtest) diffs $(b,all) under \
     both against one golden file)."
  in
  Arg.(
    value
    & opt (enum modes) (Psbox_engine.Sim.default_pooling ())
    & info [ "pool" ] ~docv:"on|off" ~doc)

(* Evaluated before any command body runs (cmdliner applies term arguments
   left to right), so wrapping a command term in [with_engine] gives it the
   --pool flag without threading it through its run function. *)
let with_engine t =
  Term.(
    const (fun () r -> r)
    $ (const Psbox_engine.Sim.set_default_pooling $ pool_arg)
    $ t)

let seed_arg =
  let doc =
    "Override every selected experiment's built-in seed with $(docv). Each \
     experiment normally uses its own default seed; one --seed value pins \
     them all, so two invocations with the same --seed (and experiment \
     list) are byte-identical."
  in
  Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"INT" ~doc)

let flame_out_arg =
  let doc =
    "Write folded stacks ($(i,rail;app;subsystem;cause microjoules), one \
     per line) to $(docv), consumable by standard flamegraph tools \
     (flamegraph.pl, inferno, speedscope)."
  in
  Arg.(value & opt (some string) None & info [ "flame-out" ] ~docv:"FILE" ~doc)

let with_formatter_to path f =
  let oc = open_out path in
  let fmt = Format.formatter_of_out_channel oc in
  f fmt;
  Format.pp_print_flush fmt ();
  close_out oc

let run_ids seed trace_out metrics metrics_out audit_out flame_out health_out
    ids =
  (* Auditing is the default: a pure observer whose cost perfbench's layer
     ladder prices. Report mode (which retains every machine for the final
     report) is only armed when a report was actually requested. *)
  Audit.enable ();
  if audit_out <> None || flame_out <> None then Audit.set_report_mode true;
  (* Health rides along only on request: an on-boot hook gives every
     machine the run builds an observe-only engine with the default rule
     pack (registered after Audit.enable so the conservation probe finds
     the ledger). *)
  let health_engines = ref [] in
  if health_out <> None then
    System.on_boot (fun sys ->
        let eng = Health.create (System.sim sys) () in
        Health.add_rules eng (Health.default_pack sys);
        health_engines := eng :: !health_engines);
  (match trace_out with
  | Some _ ->
      Telemetry.Tracing.clear ();
      Telemetry.Tracing.start ()
  | None -> ());
  let run_one id =
    match Registry.find id with
    | Some e -> Report.print (e.Registry.e_run ?seed ())
    | None ->
        Printf.eprintf "unknown experiment %S; try `psbox_sim list`\n" id;
        exit 2
  in
  List.iter run_one ids;
  (match trace_out with
  | Some path ->
      Telemetry.Tracing.stop ();
      let events = Telemetry.Tracing.events () in
      Telemetry.Chrome_trace.write path events;
      Printf.printf "trace: wrote %d events to %s" (List.length events) path;
      (match Telemetry.Tracing.dropped () with
      | 0 -> print_newline ()
      | n -> Printf.printf " (%d dropped at the buffer cap)\n" n)
  | None -> ());
  (match audit_out with
  | Some path ->
      (* verify conservation before writing: a report that fails its own
         invariant must not be produced silently *)
      List.iter
        (fun a ->
          match Audit.check a with
          | Ok () -> ()
          | Error msg ->
              Printf.eprintf "audit: conservation violated: %s\n" msg;
              exit 1)
        (Audit.instances ());
      with_formatter_to path Audit.write_report;
      Printf.printf "audit: wrote report for %d system(s) to %s\n"
        (List.length (Audit.instances ()))
        path
  | None -> ());
  (match flame_out with
  | Some path ->
      with_formatter_to path Audit.write_flame;
      Printf.printf "audit: wrote folded stacks to %s\n" path
  | None -> ());
  (match health_out with
  | Some path ->
      List.iter Health.stop !health_engines;
      let logs = List.rev_map Health.json !health_engines in
      let oc = open_out path in
      output_string oc "[\n";
      List.iteri
        (fun i log ->
          if i > 0 then output_string oc ",\n";
          output_string oc log)
        logs;
      output_string oc "]\n";
      close_out oc;
      Printf.printf "health: wrote incident log for %d system(s) to %s\n"
        (List.length logs) path
  | None -> ());
  (match metrics_out with
  | Some path ->
      Telemetry.Openmetrics.write path (Telemetry.Metrics.export ());
      Printf.printf "metrics: wrote OpenMetrics exposition to %s\n" path
  | None -> ());
  if metrics then begin
    print_endline "== telemetry metrics ==";
    print_string (Telemetry.Metrics.dump_string ())
  end

let run_cmd =
  let doc = "Run specific experiments by id." in
  let ids =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"ID" ~doc:"experiment id")
  in
  Cmd.v (Cmd.info "run" ~doc)
    (with_engine
       Term.(
         const run_ids $ seed_arg $ trace_out_arg $ metrics_arg
         $ metrics_out_arg $ audit_out_arg $ flame_out_arg $ health_out_arg
         $ ids))

let all_cmd =
  let doc = "Run every experiment in paper order." in
  let run seed trace_out metrics metrics_out audit_out flame_out health_out =
    run_ids seed trace_out metrics metrics_out audit_out flame_out health_out
      (List.map (fun e -> e.Registry.e_id) Registry.all)
  in
  Cmd.v (Cmd.info "all" ~doc)
    (with_engine
       Term.(
         const run $ seed_arg $ trace_out_arg $ metrics_arg
         $ metrics_out_arg $ audit_out_arg $ flame_out_arg $ health_out_arg))

let fleet_cmd =
  let doc =
    "Simulate a fleet of heterogeneous devices and reduce their results \
     into population-level distributions."
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Instantiates $(b,--devices) independent device simulations, each a \
         full machine plus workload scenario under its own splitmix-derived \
         seed and heterogeneity sample (rail idle floor, core count, \
         governor trip point, workload intensity, cap), sharded over \
         $(b,--jobs) OCaml domains that take device indices from one \
         shared cursor. Per-device results \
         (energy per app, cap violations, joule-audit cause totals, \
         telemetry exports) merge into fleet distributions.";
      `P
        "The report is deterministic in (scenario, seed, devices) alone: \
         byte-identical across repeated runs and across $(b,--jobs) values.";
    ]
  in
  let devices_arg =
    let doc = "Number of devices to simulate; at least 1." in
    Arg.(value & opt int 64 & info [ "devices" ] ~docv:"N" ~doc)
  in
  let jobs_arg =
    let doc =
      "Worker domains to shard across (default: the machine's recommended \
       domain count). $(b,--jobs 1) runs sequentially with byte-identical \
       output."
    in
    Arg.(
      value
      & opt int (Domain.recommended_domain_count ())
      & info [ "jobs" ] ~docv:"J" ~doc)
  in
  let fleet_seed_arg =
    let doc = "Fleet seed; every per-device seed derives from it." in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"INT" ~doc)
  in
  let scenario_arg =
    let doc =
      Printf.sprintf "Workload scenario: %s."
        (String.concat ", " Fleet.scenario_ids)
    in
    Arg.(value & opt string "budget" & info [ "scenario" ] ~docv:"ID" ~doc)
  in
  let fleet_out_arg =
    let doc = "Write the fleet report as deterministic JSON to $(docv)." in
    Arg.(
      value & opt (some string) None & info [ "fleet-out" ] ~docv:"FILE" ~doc)
  in
  let health_arg =
    let doc =
      "Attach the observe-only health engine (default rule pack) to every \
       device and reduce the per-device incident logs into fleet incident \
       rates (fired incidents per rule per 1000 devices, in the JSON \
       report and the per-device rows)."
    in
    Arg.(value & flag & info [ "health" ] ~doc)
  in
  let run devices jobs seed scenario fleet_out health =
    if not (List.mem scenario Fleet.scenario_ids) then begin
      Printf.eprintf "unknown scenario %S; available: %s\n" scenario
        (String.concat ", " Fleet.scenario_ids);
      exit 2
    end;
    if devices < 1 || jobs < 1 then begin
      Printf.eprintf "fleet: --devices and --jobs must be >= 1\n";
      exit 2
    end;
    let summary = Fleet.run ~jobs ~health ~scenario ~devices ~seed () in
    Printf.printf
      "fleet: %d device(s), scenario %s, seed %d, %d job(s)\n" devices
      scenario seed jobs;
    Printf.printf "  violation rate %.1f%%  total J p50=%.3f p99=%.3f\n"
      (summary.Fleet.s_violation_rate *. 100.0)
      summary.Fleet.s_total.Fleet.p50 summary.Fleet.s_total.Fleet.p99;
    List.iter
      (fun (cls, d) ->
        Printf.printf "  %-12s p50=%.3f p95=%.3f p99=%.3f J\n" cls
          d.Fleet.p50 d.Fleet.p95 d.Fleet.p99)
      summary.Fleet.s_energy;
    List.iter
      (fun (rule, rate) ->
        Printf.printf "  incident %-24s %.1f per 1000 devices\n" rule rate)
      summary.Fleet.s_incident_rates;
    match fleet_out with
    | Some path ->
        let oc = open_out path in
        output_string oc (Fleet.json_string summary);
        close_out oc;
        Printf.printf "fleet: wrote JSON report to %s\n" path
    | None -> ()
  in
  Cmd.v
    (Cmd.info "fleet" ~doc ~man)
    (with_engine
       Term.(
         const run $ devices_arg $ jobs_arg $ fleet_seed_arg
         $ scenario_arg $ fleet_out_arg $ health_arg))

let trace_check_cmd =
  let doc =
    "Validate a Chrome trace-event JSON file (as written by --trace-out): it \
     must parse and contain at least one event. Exits non-zero otherwise."
  in
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"trace file")
  in
  let run file =
    let ic = open_in file in
    let n = in_channel_length ic in
    let text = really_input_string ic n in
    close_in ic;
    match Telemetry.Chrome_trace.validate text with
    | Ok 0 ->
        Printf.eprintf "trace-check: %s parses but contains no events\n" file;
        exit 1
    | Ok n ->
        Printf.printf "trace-check: %s ok (%d events)\n" file n
    | Error msg ->
        Printf.eprintf "trace-check: %s invalid: %s\n" file msg;
        exit 1
  in
  Cmd.v (Cmd.info "trace-check" ~doc) Term.(const run $ file)

(* Re-fold an --audit-out report and verify its conservation claims from
   the outside: the rows of each rail block, summed top to bottom, must
   reproduce both the attributed total and the kernel ledger value
   bit-for-bit ([%.17g] round-trips doubles exactly). *)
let audit_check_cmd =
  let doc =
    "Validate a joule-audit report (as written by --audit-out): per rail, \
     the rows re-folded in file order must equal the attributed total and \
     the kernel energy ledger bit-for-bit. Exits non-zero otherwise."
  in
  let file =
    Arg.(
      required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"audit file")
  in
  let run file =
    let bits = Int64.bits_of_float in
    let fail line msg =
      Printf.eprintf "audit-check: %s:%d: %s\n" file line msg;
      exit 1
    in
    let folds : (string, float) Hashtbl.t = Hashtbl.create 8 in
    let kv line tok key =
      match String.index_opt tok '=' with
      | Some i when String.sub tok 0 i = key -> (
          let v = String.sub tok (i + 1) (String.length tok - i - 1) in
          match float_of_string_opt v with
          | Some f -> f
          | None -> fail line (Printf.sprintf "bad %s value %S" key v))
      | _ -> fail line (Printf.sprintf "expected %s=..." key)
    in
    let rails_checked = ref 0 and rows_seen = ref 0 in
    let ic = open_in file in
    let lineno = ref 0 in
    (try
       while true do
         let line = input_line ic in
         incr lineno;
         let n = !lineno in
         match String.split_on_char ' ' line with
         | "system" :: _ -> Hashtbl.reset folds
         | [ "rail"; rail; "subsystem"; _ ] -> Hashtbl.replace folds rail 0.0
         | "row" :: rail :: _app :: _sub :: cause :: j :: rest ->
             if Audit.cause_of_label cause = None then
               fail n (Printf.sprintf "unknown cause %S" cause);
             (match rest with [] | [ "residual" ] -> () | _ -> fail n "bad row");
             let j =
               match float_of_string_opt j with
               | Some f -> f
               | None -> fail n (Printf.sprintf "bad joule value %S" j)
             in
             (match Hashtbl.find_opt folds rail with
             | Some acc -> Hashtbl.replace folds rail (acc +. j)
             | None -> fail n (Printf.sprintf "row before rail header %S" rail));
             incr rows_seen
         | "railsum" :: rail :: attributed :: ledger :: _ ->
             let attributed = kv n attributed "attributed" in
             let ledger = kv n ledger "ledger" in
             let folded =
               match Hashtbl.find_opt folds rail with
               | Some acc -> acc
               | None -> fail n (Printf.sprintf "railsum before rail %S" rail)
             in
             if bits folded <> bits attributed then
               fail n
                 (Printf.sprintf
                    "rail %s: re-folded rows %.17g <> attributed %.17g" rail
                    folded attributed);
             if bits attributed <> bits ledger then
               fail n
                 (Printf.sprintf
                    "rail %s: attributed %.17g <> kernel ledger %.17g" rail
                    attributed ledger);
             Hashtbl.remove folds rail;
             incr rails_checked
         | [] | [ "" ] -> ()
         | first :: _ when String.length first > 0 && first.[0] = '#' -> ()
         | _ -> fail n (Printf.sprintf "unrecognized line %S" line)
       done
     with End_of_file -> close_in ic);
    if !rails_checked = 0 then begin
      Printf.eprintf "audit-check: %s contains no rail blocks\n" file;
      exit 1
    end;
    Printf.printf
      "audit-check: %s ok (%d rails, %d rows, per-rail sums bit-exact)\n" file
      !rails_checked !rows_seen
  in
  Cmd.v (Cmd.info "audit-check" ~doc) Term.(const run $ file)

(* The model and health checks refuse a numeric flag up front, by name,
   unless it is finite and in range. NaN passes every comparison gate (a
   NaN --max-mape never fails), an infinite --perturb turns the fitted
   coefficients into NaN, and out-of-range values give a silently wrong
   answer: a --perturb of -100 or less zeroes or negates the coefficients,
   a --drift-threshold of 0 fires on a perfect model, and a negative
   --max-mape is a gate that cannot pass. *)
type bound = Above of float | At_least of float

let require_in_range cmd flag bound v =
  let ok, op, lo =
    match bound with
    | Above lo -> (v > lo, ">", lo)
    | At_least lo -> (v >= lo, ">=", lo)
  in
  if not (Float.is_finite v && ok) then begin
    Printf.eprintf "%s: --%s must be finite and %s %g, got %s\n" cmd flag op
      lo (Float.to_string v);
    exit 2
  end

let model_check_cmd =
  let doc =
    "Fit counter-driven power models on one seed, validate on another, and \
     report per-rail MAPE/RMSE as deterministic JSON."
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs the reference scenario (2 cores, GPU, WiFi; phased mixed and \
         bursty apps) under $(b,--seed), records windowed power-state \
         residency counters against the kernel energy ledger, and fits one \
         per-OPP and one aggregate linear model per rail by least squares. \
         It then records the scenario again under $(b,--val-seed) and \
         reports each rail's held-out MAPE and RMSE.";
      `P
        "With $(b,--perturb) the fitted coefficients are deliberately \
         scaled before validation, and the reported MAPE grows with the \
         injected error. Whether the health engine's drift rule catches \
         and heals such an error is $(b,health-check)'s job.";
    ]
  in
  let seed_a =
    let doc = "Seed for the fitting (training) run." in
    Arg.(value & opt int 11 & info [ "seed" ] ~docv:"INT" ~doc)
  in
  let seed_b =
    let doc = "Seed for the held-out validation run." in
    Arg.(value & opt int 23 & info [ "val-seed" ] ~docv:"INT" ~doc)
  in
  let window_ms =
    let doc = "Observation window in milliseconds." in
    Arg.(value & opt int 50 & info [ "window-ms" ] ~docv:"MS" ~doc)
  in
  let windows =
    let doc = "Number of windows per run." in
    Arg.(value & opt int 40 & info [ "windows" ] ~docv:"N" ~doc)
  in
  let perturb =
    let doc =
      "Scale the fitted coefficients by (1 + $(docv)/100) before validating \
       — an injected model error. Must be finite and above -100."
    in
    Arg.(value & opt float 0.0 & info [ "perturb" ] ~docv:"PCT" ~doc)
  in
  let max_mape =
    let doc =
      "Fail (exit 1) if any rail's per-OPP validation MAPE exceeds $(docv) \
       percent. Must be finite and at least 0."
    in
    Arg.(value & opt (some float) None & info [ "max-mape" ] ~docv:"PCT" ~doc)
  in
  let model_out =
    let doc = "Write the JSON report to $(docv) instead of stdout." in
    Arg.(value & opt (some string) None & info [ "model-out" ] ~docv:"FILE" ~doc)
  in
  let run seed_a seed_b window_ms windows perturb max_mape model_out =
    if window_ms <= 0 || windows <= 0 then begin
      Printf.eprintf "model-check: --window-ms and --windows must be positive\n";
      exit 2
    end;
    require_in_range "model-check" "perturb" (Above (-100.0)) perturb;
    Option.iter
      (require_in_range "model-check" "max-mape" (At_least 0.0))
      max_mape;
    Audit.enable ();
    let report =
      Psbox_model.Model.Check.run ~fit_seed:seed_a ~val_seed:seed_b
        ~window:(Psbox_engine.Time.ms window_ms) ~windows ~perturb_pct:perturb
        ()
    in
    let json = Psbox_model.Model.Check.json report in
    (match model_out with
    | Some path ->
        let oc = open_out path in
        output_string oc json;
        close_out oc;
        Printf.printf "model-check: wrote report to %s\n" path
    | None -> print_string json);
    match max_mape with
    | Some cap when report.Psbox_model.Model.Check.c_max_mape_pct > cap ->
        Printf.eprintf "model-check: max rail MAPE %.3f%% exceeds --max-mape %.3f%%\n"
          report.Psbox_model.Model.Check.c_max_mape_pct cap;
        exit 1
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "model-check" ~doc ~man)
    (with_engine
       Term.(
         const run $ seed_a $ seed_b $ window_ms $ windows
         $ perturb $ max_mape $ model_out))

let health_check_cmd =
  let doc =
    "Run the drift-injection self-healing demo and emit the deterministic \
     incident log as JSON."
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Fits ground-truth power models on $(b,--seed), perturbs their \
         coefficients by $(b,--perturb) percent, then re-runs the reference \
         scenario under $(b,--val-seed) with the perturbed estimator, the \
         health engine's default rule pack, and the online recalibration \
         responder. The estimator only publishes per-rail MAPE gauges; the \
         pack's $(b,model.drift) rule is the one drift detector. Its \
         incident fires once per drifted rail, the responder recalibrates \
         from the live recorder trace and hot-swaps the refit under the \
         estimator, and the incident resolves when the MAPE gauge clears \
         the hysteresis margin.";
      `P
        "stdout (or $(b,--health-out)) is the engine's incident log: every \
         incident's open/fire/resolve timestamps, peak signal value and \
         per-rule fired counts — byte-reproducible for given seeds.";
    ]
  in
  let seed_a =
    let doc = "Seed for the fitting (ground truth) run." in
    Arg.(value & opt int 11 & info [ "seed" ] ~docv:"INT" ~doc)
  in
  let seed_b =
    let doc = "Seed for the monitored validation run." in
    Arg.(value & opt int 23 & info [ "val-seed" ] ~docv:"INT" ~doc)
  in
  let window_ms =
    let doc = "Observation window in milliseconds." in
    Arg.(value & opt int 50 & info [ "window-ms" ] ~docv:"MS" ~doc)
  in
  let windows =
    let doc = "Number of windows per run." in
    Arg.(value & opt int 60 & info [ "windows" ] ~docv:"N" ~doc)
  in
  let perturb =
    let doc =
      "Scale the fitted coefficients by (1 + $(docv)/100) before the \
       monitored run — the injected drift. Must be finite and above -100."
    in
    Arg.(value & opt float 0.0 & info [ "perturb" ] ~docv:"PCT" ~doc)
  in
  let drift_threshold =
    let doc =
      "Drift rule threshold on the rail MAPE gauges, in percent. Must be \
       finite and above 0."
    in
    Arg.(value & opt float 5.0 & info [ "drift-threshold" ] ~docv:"PCT" ~doc)
  in
  let max_mape =
    let doc =
      "Fail (exit 1) if the worst rail's post-swap held-out MAPE exceeds \
       $(docv) percent. Must be finite and at least 0."
    in
    Arg.(value & opt (some float) None & info [ "max-mape" ] ~docv:"PCT" ~doc)
  in
  let expect_heal =
    let doc =
      "Fail (exit 1) unless at least one drift incident fired and at least \
       one model was hot-swapped."
    in
    Arg.(value & flag & info [ "expect-heal" ] ~doc)
  in
  let health_out =
    let doc = "Write the incident log JSON to $(docv) instead of stdout." in
    Arg.(
      value & opt (some string) None & info [ "health-out" ] ~docv:"FILE" ~doc)
  in
  let report_out =
    let doc = "Also write the self-heal report JSON to $(docv)." in
    Arg.(
      value & opt (some string) None & info [ "report-out" ] ~docv:"FILE" ~doc)
  in
  let run seed_a seed_b window_ms windows perturb drift_threshold max_mape
      expect_heal health_out report_out =
    if window_ms <= 0 || windows <= 0 then begin
      Printf.eprintf
        "health-check: --window-ms and --windows must be positive\n";
      exit 2
    end;
    require_in_range "health-check" "perturb" (Above (-100.0)) perturb;
    require_in_range "health-check" "drift-threshold" (Above 0.0)
      drift_threshold;
    Option.iter
      (require_in_range "health-check" "max-mape" (At_least 0.0))
      max_mape;
    Audit.enable ();
    let report, eng =
      Health.Self_heal.run ~fit_seed:seed_a ~val_seed:seed_b
        ~window:(Psbox_engine.Time.ms window_ms) ~windows ~perturb_pct:perturb
        ~drift_threshold_pct:drift_threshold ()
    in
    let log = Health.json eng in
    (match health_out with
    | Some path ->
        let oc = open_out path in
        output_string oc log;
        close_out oc;
        Printf.printf "health-check: wrote incident log to %s\n" path
    | None -> print_string log);
    (match report_out with
    | Some path ->
        let oc = open_out path in
        output_string oc (Health.Self_heal.json report);
        close_out oc;
        Printf.printf "health-check: wrote self-heal report to %s\n" path
    | None -> ());
    let failed = ref false in
    (match max_mape with
    | Some cap when report.Health.Self_heal.sh_post_max_mape_pct > cap ->
        Printf.eprintf
          "health-check: post-swap MAPE %.3f%% exceeds --max-mape %.3f%%\n"
          report.Health.Self_heal.sh_post_max_mape_pct cap;
        failed := true
    | _ -> ());
    if
      expect_heal
      && (report.Health.Self_heal.sh_incidents_fired = 0
         || report.Health.Self_heal.sh_swaps = 0)
    then begin
      Printf.eprintf
        "health-check: --expect-heal but no incident fired or no model \
         swapped (perturb %.1f%%)\n"
        perturb;
      failed := true
    end;
    if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "health-check" ~doc ~man)
    (with_engine
       Term.(
         const run $ seed_a $ seed_b $ window_ms $ windows
         $ perturb $ drift_threshold $ max_mape $ expect_heal $ health_out
         $ report_out))

(* Default command: bare experiment ids work without the `run` subcommand
   (`psbox_sim --trace-out t.json budget`). *)
let default_term =
  let ids = Arg.(value & pos_all string [] & info [] ~docv:"ID") in
  let run seed trace_out metrics metrics_out audit_out flame_out health_out
      ids =
    match ids with
    | [] -> `Help (`Pager, None)
    | ids ->
        run_ids seed trace_out metrics metrics_out audit_out flame_out
          health_out ids;
        `Ok ()
  in
  Term.(
    ret
      (with_engine
         (const run $ seed_arg $ trace_out_arg $ metrics_arg
        $ metrics_out_arg $ audit_out_arg $ flame_out_arg $ health_out_arg
        $ ids)))

let () =
  let doc = "psbox reproduction: the paper's experiments on the simulator" in
  let info = Cmd.info "psbox_sim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group ~default:default_term info
          [
            list_cmd; run_cmd; all_cmd; fleet_cmd; trace_check_cmd;
            audit_check_cmd; model_check_cmd; health_check_cmd;
          ]))
