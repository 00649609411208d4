(* End-to-end benchmark: command line, metrics and output.

     dune exec perfbench/run.exe -- --workload NAME [--seed N] [--seconds S]
                                    [--trace 0|1] [--out FILE]
     dune exec perfbench/run.exe -- [--seed N] [--seconds S] [--trace 0|1]
     dune exec perfbench/run.exe -- --quick

   With --workload, runs that workload for S seconds (default: run_seconds
   of BENCHMARK.json), checks its outputs, prints every metric by name and
   unit and, as the last line of stdout, one JSON object {correct,
   attempted, failed, metrics}.
   Untraced runs report the end_to_end metrics of BENCHMARK.json; traced
   runs report its per_layer metrics and write the spans as Chrome trace
   JSON. Results, with a run manifest, go to perfbench/results/ unless
   --out names a file. Without --workload, every workload of
   BENCHMARK.json runs in turn, each in its own child process.

   --quick runs every workload and every probe at a tiny size in one
   process, checks the golden digests, jobs-invariance, audit
   conservation and that every metric BENCHMARK.json names is produced;
   `dune runtest` runs it. Exit status is 0 only when every check passed.

   The benchmark reads BENCHMARK.json and perfbench/golden.json relative
   to the current directory: run it from the repository root. *)

module Json = Psbox_telemetry.Json
module W = Workloads

type config = {
  workload : string option;
  seed : int;
  seconds : float option;  (** default: run_seconds of BENCHMARK.json *)
  traced : bool;
  quick : bool;
  out : string option;
}

let usage () =
  prerr_endline
    "usage: run.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
     [--out FILE] | --quick";
  exit 2

let parse_args argv =
  let rec go c = function
    | [] -> c
    | "--workload" :: w :: rest -> go { c with workload = Some w } rest
    | "--seed" :: n :: rest -> go { c with seed = int_of_string n } rest
    | "--seconds" :: s :: rest ->
        go { c with seconds = Some (float_of_string s) } rest
    | "--trace" :: ("0" | "1" as t) :: rest -> go { c with traced = t = "1" } rest
    | "--out" :: f :: rest -> go { c with out = Some f } rest
    | "--quick" :: rest -> go { c with quick = true } rest
    | _ -> usage ()
  in
  try
    go
      { workload = None; seed = 42; seconds = None; traced = false;
        quick = false; out = None }
      argv
  with Failure _ -> usage ()

let read_json path =
  match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Ok j -> j
  | Error e -> failwith (path ^ ": " ^ e)

(* Declared metrics, in file order, with their units. *)
let declared bench key =
  List.map
    (fun m -> (Jsonout.to_str "name" m, Jsonout.to_str "unit" m))
    (Jsonout.to_list key bench)

(* ---- metrics ---------------------------------------------------------- *)

let sum = List.fold_left ( +. ) 0.0
let ratio a b = if b > 0.0 then a /. b else 0.0

(* Times carrying a bound are rescaled to the nominal host (Hostref): op
   time as the ratio of total op time to total reference time around the
   ops, which weighs every op by its length, as a user waiting for all of
   them would; set-up time as the median of the rescaled set-ups. The raw
   times are printed beside them. *)
let end_to_end (o : W.outcome) =
  let secs ops = List.map (fun (op : W.op) -> op.secs) ops in
  let untraced = List.filter (fun (op : W.op) -> not op.traced) o.ops in
  let timed = secs untraced in
  let n = float_of_int (List.length o.ops) in
  let tail, tail_pct = Option.value (Spans.tail timed) ~default:(nan, nan) in
  [
    ( "setup_s",
      Spans.median
        (List.map (fun (s, host) -> s *. Hostref.nominal /. host) o.setups) );
    ( "iter_s",
      Hostref.nominal *. sum timed
      /. sum (List.map (fun (op : W.op) -> op.host) untraced) );
    ("setup_raw_s", Spans.median (List.map fst o.setups));
    ( "host_ref_ms",
      1e3 *. Spans.median (List.map (fun (op : W.op) -> op.host) untraced) );
    ("iter_min_s", List.fold_left Float.min infinity timed);
    ("iter_p50_s", Spans.median timed);
    ("iter_tail_s", tail);
    ("iter_tail_pct", tail_pct);
    ("work_per_s", o.work_per_op *. n /. sum (secs o.ops));
    ("alloc_words_per_op", sum (List.map (fun (op : W.op) -> op.words) o.ops) /. n);
    ("live_heap_mb", o.live_mb);
  ]

(* Per-op counts and per-event costs of the workload itself, plus the
   price of tracing: traced against untraced ops of the same run. *)
let workload_layers (o : W.outcome) =
  let n = float_of_int (List.length o.ops) in
  let c k = List.assoc k o.counts in
  let fired = c "sim.events_fired" in
  let med traced =
    Spans.median
      (List.filter_map
         (fun (op : W.op) -> if op.traced = traced then Some op.secs else None)
         o.ops)
  in
  [
    ("engine.events_fired", fired /. n);
    ("engine.fire_ratio", ratio fired (c "sim.events_scheduled"));
    ( "engine.ns_per_event",
      ratio (1e9 *. sum (List.map (fun (op : W.op) -> op.secs) o.ops)) fired );
    ( "engine.words_per_event",
      ratio (sum (List.map (fun (op : W.op) -> op.words) o.ops)) fired );
    ("kernel.ctx_switches", c "smp.ctx_switches" /. n);
    ( "kernel.accel_dispatched",
      (c "accel.gpu.dispatched" +. c "accel.dsp.dispatched") /. n );
    ("kernel.net_tx_packets", c "net.tx_packets" /. n);
    ("core.balloons", c "psbox.balloons" /. n);
    ("budget.ticks", c "budget.ticks" /. n);
    ("budget.cap_violations", c "budget.cap_violations" /. n);
    ("health.evals", c "health.evals" /. n);
    ("trace.overhead_pct", 100.0 *. ((med true /. med false) -. 1.0));
    ("mem.peak_rss_mb", o.rss_mib);
  ]

(* ---- workloads -------------------------------------------------------- *)

let fleet_devices ~quick = if quick then 8 else 400

let run_workload ~quick ~seed ~seconds ~traced ~golden name =
  let plan =
    if quick then { W.seconds = 0.0; min_ops = 1; max_ops = 1; traced }
    else { W.seconds; min_ops = 1; max_ops = max_int; traced }
  in
  let g key =
    if seed = int_of_float (Jsonout.to_num "seed" golden) then
      Some (Jsonout.to_str key golden)
    else None
  in
  let fleet jobs =
    let devices = fleet_devices ~quick in
    W.fleet plan ~jobs ~devices ~seed
      ~golden:(g ("fleet_" ^ string_of_int devices))
  in
  (* set-up and checks are traced whole; ops, every other one *)
  Spans.recording := traced;
  let o =
    match name with
    | "paper" -> W.paper plan ~seed ~golden:(g "paper")
    | "fleet_par" -> fleet W.jobs
    | "fleet_seq" -> fleet 1
    | "soak" ->
        let horizon = if quick then W.check_at else 3600 in
        W.soak plan ~horizon ~seed ~golden:(g "soak")
    | w -> failwith ("unknown workload " ^ w)
  in
  Spans.recording := false;
  o

(* ---- output ----------------------------------------------------------- *)

let nproc () =
  match In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all with
  | s ->
      List.length
        (List.filter
           (fun l -> String.starts_with ~prefix:"processor" l)
           (String.split_on_char '\n' s))
  | exception Sys_error _ -> W.jobs

let manifest c ~seconds name (o : W.outcome) =
  [
    ("workload", Json.Str name);
    ("seed", Json.Num (float_of_int c.seed));
    ("seconds", Json.Num seconds);
    ("traced", Json.Bool c.traced);
    ("recommended_domains", Json.Num (float_of_int W.jobs));
    ("nproc", Json.Num (float_of_int (nproc ())));
    ( "backend",
      Json.Str
        (match Psbox_engine.Sim.default_backend () with
        | `Wheel -> "wheel"
        | `Heap -> "heap") );
    ("pooling", Json.Bool (Psbox_engine.Sim.default_pooling ()));
    ("ocaml", Json.Str Sys.ocaml_version);
    ("ops", Json.Num (float_of_int (List.length o.ops)));
    ("setups", Json.Num (float_of_int (List.length o.setups)));
  ]
  @ o.facts

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let write_file path s =
  mkdir_p (Filename.dirname path);
  Out_channel.with_open_bin path (fun oc -> output_string oc s)

let results_json ~manifest ~metrics ~(o : W.outcome) ~failures =
  let nums l = Json.Arr (List.map (fun x -> Json.Num x) l) in
  Jsonout.to_string
    (Obj
       [
         ("manifest", Obj manifest);
         ("metrics", Obj (List.map (fun (k, v) -> (k, Json.Num v)) metrics));
         ("op_seconds", nums (List.map (fun (op : W.op) -> op.secs) o.ops));
         ("setup_seconds", nums (List.map fst o.setups));
         ("op_reference_seconds", nums (List.map (fun (op : W.op) -> op.host) o.ops));
         ("setup_reference_seconds", nums (List.map snd o.setups));
         ( "spans",
           Arr
             (List.map
                (fun (name, (calls, total, self)) ->
                  Json.Obj
                    [
                      ("name", Str name);
                      ("calls", Num (float_of_int calls));
                      ("total_s", Num total);
                      ("self_s", Num self);
                    ])
                (Spans.self_table ())) );
         ("failures", Arr (List.map (fun f -> Json.Str f) failures));
       ])
  ^ "\n"

let print_metric (n, v, u) = Printf.printf "  %-40s %16.6g %s\n" n v u

let single c ~seconds bench golden name =
  let (o : W.outcome) =
    run_workload ~quick:false ~seed:c.seed ~seconds ~traced:c.traced ~golden name
  in
  let computed =
    if c.traced then workload_layers o @ Layers.measure Layers.full ~seed:c.seed
    else end_to_end o
  in
  let wanted = declared bench (if c.traced then "per_layer" else "end_to_end") in
  let missing =
    List.filter_map
      (fun (n, _) ->
        match List.assoc_opt n computed with
        | Some v when Float.is_finite v -> None
        | _ -> Some ("metric " ^ n ^ " not produced"))
      wanted
  in
  let failures = o.failures @ missing in
  let manifest = manifest c ~seconds name o in
  let base =
    Printf.sprintf "perfbench/results/%s-seed%d-trace%d" name c.seed
      (Bool.to_int c.traced)
  in
  let out = Option.value c.out ~default:(base ^ ".json") in
  write_file out (results_json ~manifest ~metrics:computed ~o ~failures);
  if c.traced then Spans.write_chrome (Filename.remove_extension out ^ ".trace.json");
  print_endline (Jsonout.to_string (Obj manifest));
  let rows =
    List.map (fun (n, u) -> (n, Option.value ~default:nan (List.assoc_opt n computed), u)) wanted
  in
  List.iter print_metric rows;
  (* reported, but BENCHMARK.json sets no bound on them *)
  List.iter
    (fun (n, v) ->
      if not (List.mem_assoc n wanted) then print_metric (n, v, "(informational)"))
    computed;
  List.iter (fun f -> Printf.printf "  FAILED: %s\n" f) failures;
  Printf.printf "  results: %s\n" out;
  let failed = List.length failures in
  print_endline
    (Jsonout.to_string
       (Obj
          [
            ("correct", Bool (failed = 0));
            ("attempted", Num (float_of_int (o.attempted + List.length wanted)));
            ("failed", Num (float_of_int failed));
            ( "metrics",
              Obj
                (List.map
                   (fun (n, v, u) -> (n, Json.Obj [ ("value", Num v); ("unit", Str u) ]))
                   rows) );
          ]));
  if failed > 0 then exit 1

(* Every workload at a tiny size in this process, traced, then the probes
   once; every declared metric must come out finite somewhere. *)
let quick bench golden =
  let t0 = Spans.now () in
  let names = List.map (Jsonout.to_str "name") (Jsonout.to_list "workloads" bench) in
  let outcomes =
    List.map
      (fun w ->
        (w, run_workload ~quick:true ~seed:42 ~seconds:0.0 ~traced:true ~golden w))
      names
  in
  let computed =
    List.concat_map
      (fun (_, o) -> end_to_end o @ workload_layers o)
      outcomes
    @ Layers.measure Layers.quick ~seed:42
  in
  let failures =
    List.concat_map (fun (_, (o : W.outcome)) -> o.failures) outcomes
    @ List.filter_map
        (fun (n, _) ->
          if List.exists (fun (k, v) -> k = n && Float.is_finite v) computed
          then None
          else Some ("metric " ^ n ^ " not produced"))
        (declared bench "end_to_end" @ declared bench "per_layer")
  in
  List.iter (fun f -> Printf.printf "FAILED: %s\n" f) failures;
  Printf.printf "perfbench --quick: %d workloads, %d checks failed, %.2fs\n"
    (List.length outcomes) (List.length failures)
    (Spans.now () -. t0);
  if failures <> [] then exit 1

(* One child process per workload, one at a time, sharing our stdout. *)
let all c ~seconds bench =
  let failed =
    List.filter
      (fun m ->
        let name = Jsonout.to_str "name" m in
        let args =
          [ "--workload"; name; "--seed"; string_of_int c.seed;
            "--seconds"; Printf.sprintf "%g" seconds;
            "--trace"; (if c.traced then "1" else "0") ]
        in
        Printf.printf "== %s ==\n%!" name;
        let pid =
          Unix.create_process Sys.executable_name
            (Array.of_list (Sys.executable_name :: args))
            Unix.stdin Unix.stdout Unix.stderr
        in
        match Unix.waitpid [] pid with _, Unix.WEXITED 0 -> false | _ -> true)
      (Jsonout.to_list "workloads" bench)
  in
  if failed <> [] then exit 1

let () =
  let argv = List.tl (Array.to_list Sys.argv) in
  match argv with
  | "--paper-child" :: rest ->
      let c = parse_args rest in
      W.paper_child ~seed:c.seed ~traced:c.traced
  | _ -> (
      let c = parse_args argv in
      let bench = read_json "BENCHMARK.json" in
      let golden = read_json "perfbench/golden.json" in
      let seconds =
        Option.value c.seconds ~default:(Jsonout.to_num "run_seconds" bench)
      in
      if c.quick then quick bench golden
      else
        match c.workload with
        | Some w -> single c ~seconds bench golden w
        | None -> all c ~seconds bench)
