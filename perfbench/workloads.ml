(* The four workloads. Each is a closed loop: one client runs operations
   ("ops") back to back until the time budget is spent, and every op's
   output is checked as it completes.

   - paper: one regeneration of every registry experiment (what
     `psbox_sim all` prints) in a fresh child process.
   - fleet_par / fleet_seq: a 400-device budget fleet with health on,
     summarized and rendered to JSON, at jobs = the recommended domain
     count and at jobs = 1.
   - soak: one simulated second of one long-lived capped machine. *)

module Registry = Psbox_experiments.Registry
module Report = Psbox_experiments.Report
module System = Psbox_kernel.System
module W = Psbox_workloads.Workload
module T = Psbox_engine.Time
module Metrics = Psbox_telemetry.Metrics
module Json = Psbox_telemetry.Json
module Audit = Psbox_audit.Audit
module Budget = Psbox_budget.Budget
module Fleet = Psbox_fleet.Fleet
module Model = Psbox_model.Model
module Health = Psbox_health.Health

let now = Spans.now
let md5 s = Digest.to_hex (Digest.string s)
let jobs = Domain.recommended_domain_count ()

(* ---- what every workload reports ------------------------------------- *)

(* Telemetry counters read around the ops of every workload; per-op
   deltas become the per-layer count metrics. *)
let counter_names =
  [
    "sim.events_fired"; "sim.events_scheduled"; "smp.ctx_switches";
    "accel.gpu.dispatched"; "accel.dsp.dispatched"; "net.tx_packets";
    "psbox.balloons"; "budget.ticks"; "budget.cap_violations"; "health.evals";
  ]

let read_counters find =
  List.map (fun n -> (n, Option.value ~default:0.0 (find n))) counter_names

let add_counts a b = List.map2 (fun (n, x) (_, y) -> (n, x +. y)) a b
let sub_counts a b = List.map2 (fun (n, x) (_, y) -> (n, x -. y)) a b
let zero_counts = List.map (fun n -> (n, 0.0)) counter_names

type op = {
  secs : float;
  host : float;  (** seconds the reference job took around the op *)
  words : float;
  traced : bool;
}

type outcome = {
  setups : (float * float) list;
      (** seconds of every set-up, and the reference job's around it *)
  ops : op list;
  work_per_op : float;
      (** devices, simulated seconds or regenerations done by one op *)
  counts : (string * float) list;  (** counter totals over all ops *)
  live_mb : float;  (** live heap after the ops, after a full collection *)
  rss_mib : float;  (** peak resident set of the process doing the work *)
  attempted : int;  (** ops plus end-of-run checks *)
  failures : string list;
  facts : (string * Json.t) list;  (** sizes and horizon, for the manifest *)
}

(* How long to run: ops continue until [seconds] have passed and at least
   [min_ops] ran, never beyond [max_ops]. A traced run records spans on
   every other op; the untraced ops in between price the tracing. *)
type plan = { seconds : float; min_ops : int; max_ops : int; traced : bool }

let peak_rss_mib () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | status ->
      List.find_map
        (fun line ->
          Scanf.sscanf_opt line "VmHWM: %f kB" (fun kb -> kb /. 1024.0))
        (String.split_on_char '\n' status)
      |> Option.value ~default:nan
  | exception Sys_error _ -> nan

(* Live heap words after a full major collection. *)
let live_words () =
  Gc.full_major ();
  float_of_int (Gc.stat ()).Gc.live_words

(* Minor words allocated by every domain so far. Gc.minor flushes this
   domain's minor heap into the statistics; the workers of a fleet run
   have terminated, so theirs are already counted. *)
let all_domain_words () =
  Gc.minor ();
  (Gc.quick_stat ()).Gc.minor_words

(* How often the host's speed is sampled between ops; ops longer than
   this get a sample before and after each. *)
let ref_every = 0.5

(* [after i] runs once op [i] is measured: checks that must not be timed.
   The reference job runs on [domains] domains, as many as an op uses;
   with 0, the op samples the host itself and sets [host] afterwards. *)
let loop ?(after = ignore) ?(domains = 1) plan ~name ~words (op : int -> unit) =
  let t_end = now () +. plan.seconds in
  let recording = !Spans.recording in
  let rec go i acc =
    if i >= plan.max_ops || (i >= plan.min_ops && now () >= t_end) then begin
      if domains > 0 then Hostref.sample ~domains ();
      List.rev_map
        (fun (t0, secs, words, traced) ->
          { secs; host = Hostref.around t0 (t0 +. secs); words; traced })
        acc
    end
    else begin
      if domains > 0 then Hostref.sample_every ~domains ref_every;
      let traced = plan.traced && i mod 2 = 0 in
      Spans.recording := traced;
      Spans.iteration := i;
      let w0 = words () in
      let t0 = now () in
      Spans.with_ name (fun () -> op i);
      let secs = now () -. t0 in
      let w1 = words () in
      Spans.recording := recording;
      Spans.iteration := -1;
      after i;
      go (i + 1) ((t0, secs, w1 -. w0, traced) :: acc)
    end
  in
  go 0 []

(* Set-up runs [n] times, each between two samples of the host's speed:
   its results, and its durations with the reference time around each. *)
let setup_n ?domains n ~name f =
  List.split
    (List.init n (fun i ->
         if i = 0 then Hostref.sample ?domains ();
         let t0 = now () in
         let r = Spans.with_ name f in
         let secs = now () -. t0 in
         Hostref.sample ?domains ();
         (r, (secs, Hostref.around t0 (t0 +. secs)))))

(* ---- paper ------------------------------------------------------------ *)

(* Child side: render every experiment's report exactly as `psbox_sim
   all --seed` prints it, and report on stdout, as one JSON line, its
   digest, when it started, when the regeneration started and ended, the
   reference job's time around the regeneration, and the child's
   allocation, counters, peak RSS and the live heap the regeneration
   leaves behind (read after [t_done], so the full collection it needs is
   not timed). *)
let paper_child ~seed ~traced =
  let t_first = now () in
  (* the host's speed, read on the CPU the child runs on; the parent may
     well run on another *)
  Hostref.sample ();
  let t_regen = now () in
  Spans.recording := traced;
  Audit.enable ();
  let render () =
    let reports =
      List.map
        (fun e ->
          Spans.with_ ("paper." ^ e.Registry.e_id) (fun () ->
              e.Registry.e_run ~seed ()))
        Registry.all
    in
    Spans.with_ "report.render" (fun () ->
        let buf = Buffer.create 65536 in
        let fmt = Format.formatter_of_buffer buf in
        List.iter (Report.render fmt) reports;
        Format.pp_print_flush fmt ();
        md5 (Buffer.contents buf))
  in
  let digest = render () in
  let t_done = now () in
  let words = Gc.minor_words () in
  Hostref.sample ();
  let host = Hostref.around t_regen t_done in
  let spans =
    List.map
      (fun s -> Json.Arr [ Str s.Spans.name; Num s.Spans.t0; Num s.Spans.t1 ])
      (Spans.spans ())
  in
  print_endline
    (Jsonout.to_string
       (Obj
          [
            ("digest", Str digest);
            ("t_first", Num t_first);
            ("t_regen", Num t_regen);
            ("t_done", Num t_done);
            ("host", Num host);
            ("minor_words", Num words);
            ("live_words", Num (live_words ()));
            ("rss_mib", Num (peak_rss_mib ()));
            ( "counts",
              Obj
                (List.map (fun (n, v) -> (n, Json.Num v))
                   (read_counters Metrics.find)) );
            ("spans", Arr spans);
          ]))

type child = {
  c_seed : int;
  c_digest : string;
  c_setup : float;  (** spawn until the first experiment starts *)
  c_secs : float;
      (** spawn until the reports are rendered, less the reference job
          run in between *)
  c_host : float;  (** the reference job's seconds, in the child *)
  c_words : float;
  c_live_words : float;
  c_rss_mib : float;
  c_counts : (string * float) list;
}

(* Parent side: spawn one child, wait for it, and fold its spans into
   this process's log under the currently open span. *)
let run_child ~seed ~traced =
  let args =
    [ "--paper-child"; "--seed"; string_of_int seed ]
    @ if traced then [ "--trace"; "1" ] else []
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let t_spawn = now () in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let out = In_channel.input_all ic in
  close_in ic;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith "paper: child process failed");
  let j =
    match Json.parse (String.trim out) with
    | Ok j -> j
    | Error e -> failwith ("paper: bad child output: " ^ e)
  in
  let parent = !Spans.open_span in
  if !Spans.recording then
    List.iter
      (function
        | Json.Arr [ Str name; Num t0; Num t1 ] ->
            Spans.add ~name ~parent t0 t1
        | _ -> failwith "paper: bad child span")
      (Jsonout.to_list "spans" j);
  let counts = Jsonout.field "counts" j in
  {
    c_seed = seed;
    c_digest = Jsonout.to_str "digest" j;
    c_setup = Jsonout.to_num "t_first" j -. t_spawn;
    c_secs =
      Jsonout.to_num "t_done" j -. Jsonout.to_num "t_regen" j
      +. Jsonout.to_num "t_first" j -. t_spawn;
    c_host = Jsonout.to_num "host" j;
    c_words = Jsonout.to_num "minor_words" j;
    c_live_words = Jsonout.to_num "live_words" j;
    c_rss_mib = Jsonout.to_num "rss_mib" j;
    c_counts =
      read_counters (fun n ->
          match Json.member n counts with Some (Json.Num x) -> Some x | _ -> None);
  }

(* How much a regeneration costs depends on the seed (workload lengths
   are drawn from it), so one run cycles through [paper_seeds] seeds
   derived from its own, the first being the seed itself. *)
let paper_seeds = 12
let paper_seed ~seed i = seed + (7919 * (i mod paper_seeds))
let word_mb = float_of_int (Sys.word_size / 8) /. 1e6

let paper plan ~seed ~golden =
  let children = ref [] in
  let ops =
    (* each child samples the host itself *)
    loop plan ~domains:0 ~name:"paper.regen" ~words:(fun () -> 0.0) (fun i ->
        children :=
          run_child ~seed:(paper_seed ~seed i) ~traced:!Spans.recording
          :: !children)
  in
  let children = List.rev !children in
  (* every child at one seed must print the same bytes, and at the golden
     seed the bytes `psbox_sim all` prints *)
  let first = Hashtbl.create paper_seeds in
  Option.iter (Hashtbl.replace first seed) golden;
  let failures =
    List.filter_map
      (fun c ->
        match Hashtbl.find_opt first c.c_seed with
        | None ->
            Hashtbl.replace first c.c_seed c.c_digest;
            None
        | Some d when d = c.c_digest -> None
        | Some d ->
            Some
              (Printf.sprintf "paper: seed %d report digest %s <> %s" c.c_seed
                 c.c_digest d))
      children
  in
  let med f = Spans.median (List.map f children) in
  {
    setups = List.map (fun c -> (c.c_setup, c.c_host)) children;
    (* the child's own clock readings, and its allocation *)
    ops =
      List.map2
        (fun (o : op) c ->
          { o with secs = c.c_secs; host = c.c_host; words = c.c_words })
        ops children;
    work_per_op = 1.0;
    counts =
      List.fold_left (fun acc c -> add_counts acc c.c_counts) zero_counts
        children;
    live_mb = med (fun c -> c.c_live_words *. word_mb);
    rss_mib = med (fun c -> c.c_rss_mib);
    attempted = List.length children;
    failures;
    facts =
      [
        ("experiments", Json.Num (float_of_int (List.length Registry.all)));
        ("experiment_seeds", Json.Num (float_of_int paper_seeds));
        ("digest", Json.Str (Hashtbl.find first seed));
      ];
  }

(* ---- fleets ----------------------------------------------------------- *)

let scenario = "budget"

(* One op: simulate the population, reduce it, render the JSON report.
   Returns the report's digest and the merged device metrics. *)
let fleet_op ~jobs ~devices ~seed =
  let devs =
    Spans.with_ "fleet.run_devices" (fun () ->
        Fleet.run_devices ~jobs ~health:true ~scenario ~devices ~seed ())
  in
  let s =
    Spans.with_ "fleet.summarize" (fun () ->
        Fleet.summarize ~scenario ~seed devs)
  in
  let json = Spans.with_ "fleet.json_string" (fun () -> Fleet.json_string s) in
  (md5 json, s.Fleet.s_metrics)

let export_find (e : Metrics.export) =
  let rows = Metrics.export_rows e in
  fun name -> Option.map float_of_string (List.assoc_opt name rows)

(* Set-up is a warm-up population of 32 x jobs devices (domain spawn,
   simulator slot caches), never more than an op's, nine times (no more
   than the plan's ops, so once in quick mode). A smaller one times mostly
   scheduler jitter and which few devices the seed drew.
   After the ops, a 2 x jobs population at jobs 1 and at jobs N must
   render the same bytes: the jobs-invariance check, valid at any seed. *)
let fleet plan ~jobs:j ~devices ~seed ~golden =
  let _, setups =
    setup_n (min 9 plan.max_ops) ~domains:j ~name:"fleet.warmup" (fun () ->
        ignore (fleet_op ~jobs:j ~devices:(min devices (32 * jobs)) ~seed))
  in
  let digests = ref [] and counts = ref zero_counts and live_mb = ref nan in
  let ops =
    (* live heap after the first op: later ops add a little each, so a
       reading after all of them would depend on how many ran *)
    loop plan ~domains:j ~name:"fleet.op" ~words:all_domain_words
      ~after:(fun i -> if i = 0 then live_mb := live_words () *. word_mb)
      (fun _ ->
        let d, m = fleet_op ~jobs:j ~devices ~seed in
        digests := d :: !digests;
        counts := add_counts !counts (read_counters (export_find m)))
  in
  let rss_mib = peak_rss_mib () in
  let digests = List.rev !digests in
  let reference = Option.value golden ~default:(List.hd digests) in
  let failures =
    List.filter_map
      (fun d ->
        if d = reference then None
        else Some ("fleet: report digest " ^ d ^ " <> " ^ reference))
      digests
  in
  let small k = fst (fleet_op ~jobs:k ~devices:(2 * jobs) ~seed) in
  let invariant = Spans.with_ "fleet.jobs_check" (fun () -> small 1 = small jobs) in
  {
    setups;
    ops;
    work_per_op = float_of_int devices;
    counts = !counts;
    live_mb = !live_mb;
    rss_mib;
    attempted = List.length digests + 1;
    failures =
      (failures
      @ if invariant then [] else [ "fleet: report differs between jobs 1 and N" ]);
    facts =
      [
        ("scenario", Json.Str scenario);
        ("devices", Json.Num (float_of_int devices));
        ("jobs", Json.Num (float_of_int j));
        ("health", Json.Bool true);
        ("digest", Json.Str reference);
      ];
  }

(* ---- soak ------------------------------------------------------------- *)

type machine = {
  sys : System.t;
  tenant : int;
  ctl : Budget.t;
  health : Health.t option;
  fit_s : float;  (** seconds spent fitting the rail models *)
}

(* A 2-core + GPU + WiFi machine: the tenant streams async GPU frames and
   WiFi requests under a 0.05 W cap, beside a CPU spinner. After 100 ms of
   convergence and 2 s of recording, [model] fits per-OPP rail models and
   starts the estimator, and [health] attaches the default rule pack.
   Telemetry, audit and pooling follow the process-wide switches. *)
let machine ?(model = true) ?(health = true) ~seed () =
  let sys = System.create ~seed ~cores:2 ~gpu:true ~wifi:true () in
  let a = System.new_app sys ~name:"tenant" in
  let b = System.new_app sys ~name:"spinner" in
  ignore
    (W.spawn sys ~app:a ~name:"frames" ~core:0
       (W.forever (fun () ->
            [
              W.Gpu_async (W.spec ~kind:"frame" ~work_s:0.002 ());
              W.Request
                { socket = 1; tx_bytes = 3_000; rx_bytes = 12_000; rtt = T.ms 2 };
            ])));
  ignore
    (W.spawn sys ~app:b ~name:"spin" ~core:1
       (W.forever (fun () -> [ W.Compute (T.ms 5) ])));
  System.start sys;
  let ctl = Budget.create sys () in
  Budget.set_cap ctl ~app:a.System.app_id ~watts:0.05;
  System.run_for sys (T.ms 100);
  let rec_ = if model then Some (Model.Recorder.start sys ()) else None in
  System.run_for sys (T.sec 2);
  let fit_s =
    match rec_ with
    | None -> 0.0
    | Some r ->
        let traces = Model.Recorder.stop r in
        let t0 = now () in
        let models =
          Spans.with_ "model.fit" (fun () ->
              List.map (Model.Fit.fit ~kind:Model.Fit.Per_opp) traces)
        in
        let fit_s = now () -. t0 in
        ignore (Model.Estimator.start sys ~models ());
        fit_s
  in
  let health =
    if health && model then begin
      let eng = Health.create (System.sim sys) () in
      Health.add_rules eng (Health.default_pack sys);
      Some eng
    end
    else None
  in
  { sys; tenant = a.System.app_id; ctl; health; fit_s }

let warmup_s = 200

(* The outputs the soak must reproduce: per-rail energy, the tenant's
   budget history and the fired incidents. *)
let soak_digest m =
  let b = Buffer.create 65536 in
  List.iter
    (fun (r, j) -> Printf.bprintf b "%s %.17g\n" r j)
    (System.rail_energy_table m.sys);
  List.iter
    (fun (t, w, c) -> Printf.bprintf b "%d %.17g %.17g\n" t w c)
    (Budget.history m.ctl ~app:m.tenant);
  List.iter
    (fun (r, n) -> Printf.bprintf b "%s %d\n" r n)
    (match m.health with Some h -> Health.incident_counts h | None -> []);
  md5 (Buffer.contents b)

let audit_ok m =
  match Audit.lookup m.sys with
  | Some a -> Audit.check a = Ok ()
  | None -> false

(* The digest is taken after [check_at] timed seconds, whatever the run
   length, so short and long runs share one golden value. *)
let check_at = 60

let soak_machine ~seed =
  Audit.enable ();
  let m = machine ~seed () in
  Spans.with_ "system.run_for" (fun () ->
      System.run_for m.sys (T.sec warmup_s));
  m

type life = {
  l_setup : float * float;
  l_ops : op list;
  l_digest : string;
  l_counts : (string * float) list;
  l_live_mb : float;
  l_audit_ok : bool;
  l_fit_s : float;
}

(* One lifetime of the soak machine: building it and running its warm-up
   is the set-up; then [horizon] timed one-second ops, with the digest
   read after [check_at] of them. *)
let lifetime ~traced ~horizon ~seed =
  (* free the previous lifetime's machine first: two alive at once would
     double the peak RSS *)
  Gc.full_major ();
  let m, l_setup =
    match setup_n 1 ~name:"soak.setup" (fun () -> soak_machine ~seed) with
    | [ m ], [ s ] -> (m, s)
    | _ -> assert false
  in
  let digest = ref "" in
  let counts0 = read_counters Metrics.find in
  let l_ops =
    loop
      { seconds = infinity; min_ops = horizon; max_ops = horizon; traced }
      ~name:"soak.op" ~words:Gc.minor_words
      ~after:(fun i -> if i = check_at - 1 then digest := soak_digest m)
      (fun _ ->
        Spans.with_ "system.run_for" (fun () -> System.run_for m.sys (T.sec 1)))
  in
  let l_counts = sub_counts (read_counters Metrics.find) counts0 in
  let l_live_mb = live_words () *. word_mb in
  {
    l_setup;
    l_ops;
    l_digest = !digest;
    l_counts;
    l_live_mb;
    l_audit_ok = audit_ok m;
    l_fit_s = m.fit_s;
  }

(* Lifetimes follow one another, one machine alive at a time, until the
   time budget is spent. Each holds its machine for a fixed simulated
   horizon, because the heap grows with simulated time: a faster build
   runs more lifetimes, never longer ones. Every lifetime must reach the
   same digest, at any seed. *)
let soak plan ~horizon ~seed ~golden =
  let t_end = now () +. plan.seconds in
  let rec go acc =
    if acc <> [] && now () >= t_end then List.rev acc
    else go (lifetime ~traced:plan.traced ~horizon ~seed :: acc)
  in
  let lives = go [] in
  let reference = Option.value golden ~default:(List.hd lives).l_digest in
  let failures =
    List.concat_map
      (fun l ->
        (if l.l_digest = reference then []
         else [ "soak: digest " ^ l.l_digest ^ " <> " ^ reference ])
        @ if l.l_audit_ok then [] else [ "soak: audit conservation check failed" ])
      lives
  in
  let ops = List.concat_map (fun l -> l.l_ops) lives in
  {
    setups = List.map (fun l -> l.l_setup) lives;
    ops;
    work_per_op = 1.0;
    counts =
      List.fold_left (fun acc l -> add_counts acc l.l_counts) zero_counts lives;
    live_mb = Spans.median (List.map (fun l -> l.l_live_mb) lives);
    rss_mib = peak_rss_mib ();
    attempted = List.length ops + (2 * List.length lives);
    failures;
    facts =
      [
        ("lifetimes", Json.Num (float_of_int (List.length lives)));
        ("warmup_sim_s", Json.Num (float_of_int warmup_s));
        ("horizon_sim_s", Json.Num (float_of_int (warmup_s + horizon)));
        ("digest_at_sim_s", Json.Num (float_of_int (warmup_s + check_at)));
        ("digest", Json.Str reference);
        ("fit_s", Json.Num (List.hd lives).l_fit_s);
      ];
  }
