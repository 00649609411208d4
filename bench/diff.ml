(* Compare the two most recent BENCH_<date>.json snapshots in the current
   directory and fail (exit 1) if any benchmark regressed by more than 20%.
   The failure message names each regressed benchmark and by how much.

   Snapshots are read with the tree's one JSON reader
   (Psbox_telemetry.Json) and rows are looked up by key: every
   { "name": ..., "<key>": <number> } object in a top-level array is a
   row of that key, wherever the key sits in the object. A metric present
   in only one snapshot is reported as NEW/GONE rather than failing the
   diff. With fewer than two snapshots there is nothing to compare and the
   tool exits 0, so it can sit on the smoke path from the first commit.

   Run with:  make bench-diff  (or  dune exec bench/diff.exe) *)

module Json = Psbox_telemetry.Json

let threshold_pct = 20.0

let load path =
  match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Ok json -> json
  | Error msg ->
      Printf.eprintf "bench-diff: %s is not valid JSON: %s\n" path msg;
      exit 2

(* The (name, value) rows carrying [key], in file order. *)
let rows json ~key =
  match json with
  | Json.Obj sections ->
      List.concat_map
        (fun (_, section) ->
          match section with
          | Json.Arr items ->
              List.filter_map
                (fun row ->
                  match (Json.member "name" row, Json.member key row) with
                  | Some (Json.Str name), Some (Json.Num v) -> Some (name, v)
                  | _ -> None)
                items
          | _ -> [])
        sections
  | _ -> []

(* Rows of the event_counts section ("count" key) under one metric
   prefix. *)
let counts json ~prefix =
  List.filter
    (fun (name, _) -> String.starts_with ~prefix name)
    (rows json ~key:"count")

(* below this absolute growth (minor words per event) a percentage is GC
   accounting jitter, not a regression — e.g. 0.1 -> 0.2 w/event is +100%
   but meaningless *)
let alloc_floor_words = 1.0

let () =
  let snapshots =
    Sys.readdir "."
    |> Array.to_list
    |> List.filter (fun f ->
           String.length f > 6
           && String.sub f 0 6 = "BENCH_"
           && Filename.check_suffix f ".json")
    |> List.sort compare (* BENCH_<yyyy-mm-dd> sorts chronologically *)
  in
  match List.rev snapshots with
  | newer :: older :: _ ->
      let old_json = load older and new_json = load newer in
      let both f = (f old_json, f new_json) in
      let base, cur = both (rows ~key:"ns_per_run") in
      Printf.printf "bench-diff: %s -> %s (threshold %.0f%%)\n" older newer
        threshold_pct;
      let regressions = ref [] and compared = ref 0 in
      List.iter
        (fun (name, ns) ->
          match List.assoc_opt name base with
          | None -> Printf.printf "  NEW    %-52s %12.0f ns\n" name ns
          | Some ns0 ->
              incr compared;
              let pct =
                if ns0 > 0.0 then (ns -. ns0) /. ns0 *. 100.0 else 0.0
              in
              let tag =
                if pct > threshold_pct then begin
                  regressions := (name, pct) :: !regressions;
                  "REGRESS"
                end
                else if pct < -.threshold_pct then "IMPROVE"
                else "ok"
              in
              Printf.printf "  %-8s%-52s %12.0f ns  %+6.1f%%\n" tag name ns pct)
        cur;
      List.iter
        (fun (name, _) ->
          if not (List.mem_assoc name cur) then
            Printf.printf "  GONE   %s\n" name)
        base;
      (* minor words allocated per simulated event: gated like ns_per_run,
         because GC pressure is a regression dimension of its own (an
         allocation creep shows up as tail latency long before it moves the
         mean). Benches that fire no events carry 0 and stay 0. *)
      (let alloc_base, alloc_cur = both (rows ~key:"minor_words_per_event") in
       if alloc_cur <> [] then begin
         Printf.printf "allocation per simulated event (gated):\n";
         List.iter
           (fun (name, w) ->
             match List.assoc_opt name alloc_base with
             | None ->
                 Printf.printf "  NEW    %-52s %12.2f w/ev\n" name w
             | Some w0 ->
                 incr compared;
                 let pct =
                   if w0 > 0.0 then (w -. w0) /. w0 *. 100.0
                   else if w > 0.0 then 100.0
                   else 0.0
                 in
                 let tag =
                   if pct > threshold_pct && w -. w0 > alloc_floor_words
                   then begin
                     regressions := (name ^ " [alloc]", pct) :: !regressions;
                     "REGRESS"
                   end
                   else if pct < -.threshold_pct then "IMPROVE"
                   else "ok"
                 in
                 Printf.printf "  %-8s%-52s %12.2f w/ev  %+6.1f%%\n" tag name
                   w pct)
           alloc_cur
       end);
      (* simulated-event throughput, informational: it tracks how much
         work the scheduler does per run, so a shift flags an architecture
         change, not a perf regression *)
      (let eps_base, eps_cur = both (rows ~key:"events_per_sec") in
       if eps_cur <> [] then begin
         Printf.printf "simulated-event throughput (informational):\n";
         List.iter
           (fun (name, v) ->
             match List.assoc_opt name eps_base with
             | None -> Printf.printf "  NEW    %-52s %12.0f ev/s\n" name v
             | Some v0 ->
                 let ratio = if v0 > 0.0 then v /. v0 else 0.0 in
                 Printf.printf "  %-8s%-52s %12.0f ev/s  %5.2fx\n"
                   (if ratio > 1.05 then "faster"
                    else if ratio < 0.95 then "slower"
                    else "ok")
                   name v ratio)
           eps_cur
       end);
      (* attributed joules, informational: energy shifts are workload
         changes, not perf regressions *)
      (let audit_base, audit_cur = both (counts ~prefix:"audit.") in
       if audit_cur <> [] then begin
         Printf.printf "audit totals (informational):\n";
         List.iter
           (fun (name, j) ->
             match List.assoc_opt name audit_base with
             | None -> Printf.printf "  NEW    %-52s %14.3f J\n" name j
             | Some j0 ->
                 let pct = if j0 > 0.0 then (j -. j0) /. j0 *. 100.0 else 0.0 in
                 Printf.printf "  %-8s%-52s %14.3f J  %+6.1f%%\n"
                   (if Float.abs pct > 1.0 then "shift" else "ok")
                   name j pct)
           audit_cur
       end);
      (* counter-model estimates and residuals (watt gauges, MAPE
         percentages), informational: model error drifting across
         snapshots flags a hardware-model or estimator change *)
      (let model_base, model_cur = both (counts ~prefix:"model.") in
       if model_cur <> [] then begin
         Printf.printf "counter-model estimates (informational):\n";
         List.iter
           (fun (name, v) ->
             match List.assoc_opt name model_base with
             | None -> Printf.printf "  NEW    %-52s %14.6f\n" name v
             | Some v0 ->
                 let delta = v -. v0 in
                 Printf.printf "  %-8s%-52s %14.6f  %+10.6f\n"
                   (if Float.abs delta > 1e-6 then "shift" else "ok")
                   name v delta)
           model_cur
       end);
      (* incident-lifecycle counts (evaluations, pending/firing/resolved
         incidents, responder actions), informational: a shift flags a rule
         or threshold change *)
      (let health_base, health_cur = both (counts ~prefix:"health.") in
       if health_cur <> [] then begin
         Printf.printf "health incident counts (informational):\n";
         List.iter
           (fun (name, v) ->
             match List.assoc_opt name health_base with
             | None -> Printf.printf "  NEW    %-52s %14.0f\n" name v
             | Some v0 ->
                 let delta = v -. v0 in
                 Printf.printf "  %-8s%-52s %14.0f  %+6.0f\n"
                   (if Float.abs delta > 0.5 then "shift" else "ok")
                   name v delta)
           health_cur
       end);
      (match List.rev !regressions with
      | [] ->
          Printf.printf "bench-diff: %d benchmarks within threshold\n" !compared
      | rs ->
          Printf.printf "bench-diff: %d of %d benchmarks regressed >%.0f%%:\n"
            (List.length rs) !compared threshold_pct;
          List.iter
            (fun (name, pct) -> Printf.printf "  - %s: %+.1f%%\n" name pct)
            rs;
          exit 1)
  | _ ->
      print_endline
        "bench-diff: fewer than two BENCH_*.json snapshots, nothing to compare"
