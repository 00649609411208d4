(* The joule audit's load-bearing invariant: attributed joules per rail
   sum to the kernel's O(1) energy ledger bit-for-bit — for arbitrary
   workloads, across psbox balloon churn — and a balloon'd app's blame
   stays on the balloon owner, never on neighbours. *)
open Psbox_engine
module System = Psbox_kernel.System
module Audit = Psbox_audit.Audit
module Psbox = Psbox_core.Psbox
module W = Psbox_workloads.Workload

let bits = Int64.bits_of_float

let gen_ops ~gpu =
  QCheck.Gen.(
    list_size (1 -- 12)
      (oneof
         ([
            map (fun ms -> `Compute (1 + ms)) (0 -- 8);
            map (fun ms -> `Sleep (1 + ms)) (0 -- 8);
          ]
         @ if gpu then [ map (fun ms -> `Gpu (1 + ms)) (0 -- 4) ] else [])))

let to_script ops =
  let ops =
    List.map
      (function
        | `Compute ms -> W.Compute (Time.ms ms)
        | `Sleep ms -> W.Sleep (Time.ms ms)
        | `Gpu ms ->
            W.Gpu_batch [ W.spec ~kind:"k" ~work_s:(float_of_int ms /. 1e3) () ])
      ops
  in
  W.forever (fun () -> ops)

let arbitrary_scenario =
  QCheck.make
    ~print:(fun (a, b, enter_ms, leave_ms) ->
      Printf.sprintf "tasks=%d/%d enter=%dms leave=%dms" (List.length a)
        (List.length b) enter_ms leave_ms)
    QCheck.Gen.(
      quad (gen_ops ~gpu:true) (gen_ops ~gpu:true) (10 -- 200) (210 -- 400))

(* Conservation, bit-for-bit, for random workloads with random psbox
   enter/leave points: on every rail, the blame rows folded in canonical
   order equal the audit total equal the kernel ledger — as the same
   doubles, not approximately. The idle-floor remainder row makes the
   fold exact; the residue it absorbed must stay negligible, so the
   invariant is not satisfied vacuously. *)
let prop_conservation =
  QCheck.Test.make
    ~name:"random workloads attribute exactly to the ledger, per rail"
    ~count:30 arbitrary_scenario
    (fun (ops_a, ops_b, enter_ms, leave_ms) ->
      let sys = System.create ~cores:2 ~gpu:true ~wifi:true () in
      let audit = Audit.attach sys in
      let a = System.new_app sys ~name:"a" in
      let b = System.new_app sys ~name:"b" in
      ignore (W.spawn sys ~app:a ~name:"a0" ~core:0 (to_script ops_a));
      ignore (W.spawn sys ~app:b ~name:"b0" ~core:1 (to_script ops_b));
      System.start sys;
      let box = Psbox.create sys ~app:a.System.app_id ~hw:[ Psbox.Gpu ] in
      System.run_for sys (Time.ms enter_ms);
      Psbox.enter box;
      System.run_for sys (Time.ms (leave_ms - enter_ms));
      Psbox.leave box;
      System.run_for sys (Time.ms 100);
      let conserved =
        match Audit.check audit with
        | Ok () -> true
        | Error msg ->
            Printf.eprintf "audit check: %s\n" msg;
            false
      in
      let exact_and_tight =
        List.for_all
          (fun rail ->
            let total = Audit.rail_total audit ~rail in
            let ledger = System.rail_energy_j sys ~name:rail in
            let folded =
              List.fold_left
                (fun acc r -> acc +. r.Audit.r_j)
                0.0
                (Audit.rows audit ~rail)
            in
            bits total = bits ledger
            && bits folded = bits ledger
            && Float.abs (Audit.residue audit ~rail) <= 1e-9 *. (1.0 +. total))
          (Audit.rails audit)
      in
      Psbox.destroy box;
      System.shutdown sys;
      conserved && exact_and_tight)

let test_conservation_property () =
  match
    QCheck.Test.check_exn prop_conservation
  with
  | () -> ()
  | exception QCheck.Test.Test_fail (name, msgs) ->
      Alcotest.failf "%s: %s" name (String.concat "; " msgs)

(* A deterministic co-run still exercises every cause at least once and
   conserves bit-exactly: Active and Shared_rail while both apps compute,
   Lingering / Dvfs_transition on the GPU's autosuspend countdown,
   Idle_floor everywhere. *)
let test_causes_and_totals () =
  let sys = System.create ~cores:2 ~gpu:true () in
  let audit = Audit.attach sys in
  let a = System.new_app sys ~name:"a" in
  let b = System.new_app sys ~name:"b" in
  let gpu_work _ =
    [ W.Gpu_batch [ W.spec ~kind:"k" ~work_s:0.004 () ]; W.Sleep (Time.ms 2) ]
  in
  ignore (W.spawn sys ~app:a ~name:"a0" ~core:0 (W.repeat 20 gpu_work));
  (* b joins the GPU late: a's opening batches run solo (Active), the
     overlap then shares the rail (Shared_rail) *)
  ignore
    (W.spawn sys ~app:b ~name:"b0" ~core:1
       (W.repeat 20 (fun i ->
            if i = 0 then W.Sleep (Time.ms 30) :: gpu_work i else gpu_work i)));
  System.start sys;
  System.run_for sys (Time.sec 1);
  (match Audit.check audit with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "conservation violated: %s" msg);
  Alcotest.(check (list string))
    "audited rails" [ "cpu"; "gpu" ] (Audit.rails audit);
  let causes rail =
    Audit.rows audit ~rail
    |> List.filter (fun r -> r.Audit.r_j > 0.0)
    |> List.map (fun r -> Audit.cause_label r.Audit.r_cause)
    |> List.sort_uniq compare
  in
  let gpu_causes = causes "gpu" in
  List.iter
    (fun c ->
      Alcotest.(check bool) (c ^ " present on gpu") true (List.mem c gpu_causes))
    [ "active"; "shared-rail"; "idle-floor" ];
  (* the 200 ms autosuspend countdown after the last command, at an
     elevated OPP first: lingering power states, blamed on the last user *)
  Alcotest.(check bool)
    "a lingering state appears on gpu" true
    (List.mem "lingering" gpu_causes || List.mem "dvfs-transition" gpu_causes);
  Alcotest.(check bool)
    "gpu drew energy" true
    (Audit.rail_total audit ~rail:"gpu" > 0.0);
  System.shutdown sys

(* Insulation: while app a holds a GPU balloon, everything the device
   draws — including the lingering tail after its last command — is
   blamed on a. The neighbour never appears on the GPU rail at all. *)
let test_balloon_blame_insulation () =
  let sys = System.create ~cores:2 ~gpu:true () in
  let audit = Audit.attach sys in
  let a = System.new_app sys ~name:"a" in
  let b = System.new_app sys ~name:"b" in
  ignore
    (W.spawn sys ~app:a ~name:"a0" ~core:0
       (W.repeat 10 (fun _ ->
            [ W.Gpu_batch [ W.spec ~kind:"k" ~work_s:0.005 () ] ])));
  (* the neighbour computes on the CPU only *)
  ignore
    (W.spawn sys ~app:b ~name:"b0" ~core:1
       (W.repeat 50 (fun _ -> [ W.Compute (Time.ms 4); W.Sleep (Time.ms 2) ])));
  System.start sys;
  let box = Psbox.create sys ~app:a.System.app_id ~hw:[ Psbox.Gpu ] in
  System.run_for sys (Time.ms 10);
  Psbox.enter box;
  System.run_for sys (Time.ms 200);
  Psbox.leave box;
  (* let the GPU's shared-rail tail (elevated OPP, then the autosuspend
     countdown) play out after the balloon closed *)
  System.run_for sys (Time.ms 400);
  let gpu_rows = Audit.rows audit ~rail:"gpu" in
  let blamed_b =
    List.filter (fun r -> r.Audit.r_app = b.System.app_id) gpu_rows
  in
  Alcotest.(check int)
    "neighbour has no blame on the balloon'd GPU" 0 (List.length blamed_b);
  let a_j cause =
    List.fold_left
      (fun acc r ->
        if r.Audit.r_app = a.System.app_id && r.Audit.r_cause = cause then
          acc +. r.Audit.r_j
        else acc)
      0.0 gpu_rows
  in
  Alcotest.(check bool) "a has active GPU blame" true (a_j Audit.Active > 0.0);
  Alcotest.(check bool)
    "the tail is a's, not nobody's" true
    (a_j Audit.Lingering +. a_j Audit.Dvfs_transition > 0.0);
  (* the psbox snapshot captured the stay: active joules were billed *)
  let stay = Psbox.stay_blame box in
  Alcotest.(check bool)
    "stay_blame has active joules" true
    (match List.assoc_opt "active" stay with Some j -> j > 0.0 | None -> false);
  Psbox.destroy box;
  System.shutdown sys

(* The audit is a pure observer: with it attached, the rail's power
   history and the machine ledger match a run without it, byte for
   byte. *)
let test_pure_observer () =
  let run audited =
    let sys = System.create ~cores:2 ~gpu:true () in
    if audited then ignore (Audit.attach sys : Audit.t);
    let a = System.new_app sys ~name:"a" in
    ignore
      (W.spawn sys ~app:a ~name:"a0" ~core:0
         (W.repeat 15 (fun _ ->
              [
                W.Compute (Time.ms 3);
                W.Gpu_batch [ W.spec ~kind:"k" ~work_s:0.002 () ];
              ])));
    System.start sys;
    System.run_for sys (Time.ms 500);
    let e = System.live_energy_j sys in
    let per_rail = System.rail_energy_table sys in
    System.shutdown sys;
    (e, per_rail)
  in
  let e0, rails0 = run false in
  let e1, rails1 = run true in
  Alcotest.(check bool) "machine ledger identical" true (bits e0 = bits e1);
  Alcotest.(check bool)
    "per-rail ledgers identical" true
    (List.for_all2
       (fun (n0, j0) (n1, j1) -> n0 = n1 && bits j0 = bits j1)
       rails0 rails1)

(* The display and the GPS bill apps through their "<physical>.app<id>"
   attribution rails, whose draws are the apps' shares of the physical
   rail. *)
let sum_rows audit ~rail ~app =
  List.fold_left
    (fun acc r -> if r.Audit.r_app = app then acc +. r.Audit.r_j else acc)
    0.0 (Audit.rows audit ~rail)

let check_rel name expected got =
  Alcotest.(check (float (1e-9 *. Float.abs expected))) name expected got

let check_conserved audit =
  match Audit.check audit with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "conservation violated: %s" msg

(* An app that has left the GPS idles its attribution rail at the
   receiver's floor. That is no share: the app that navigates alone
   afterwards is billed all of the dynamic draw as active, and the early
   app only its own fix. *)
let test_gps_departed_app () =
  let sys = System.phone () in
  let audit = Audit.attach sys in
  let a1 = (System.new_app sys ~name:"nav").System.app_id in
  let a2 = (System.new_app sys ~name:"early").System.app_id in
  let gps = System.gps sys in
  System.run_for sys (Time.sec 1);
  Psbox_hw.Gps.subscribe gps ~app:a2;
  System.run_for sys (Time.sec 10);
  Psbox_hw.Gps.unsubscribe gps ~app:a2;
  Psbox_hw.Gps.subscribe gps ~app:a1;
  System.run_for sys (Time.sec 60);
  check_conserved audit;
  let blame name app expected_j =
    match Audit.app_blame audit ~app with
    | [ (Audit.Active, j) ] -> check_rel name expected_j j
    | b ->
        Alcotest.failf "%s: expected only active blame, got %s" name
          (String.concat ", "
             (List.map
                (fun (c, j) -> Printf.sprintf "%s=%.6fJ" (Audit.cause_label c) j)
                b))
  in
  (* 8 s acquiring at 0.18 W, then tracking at 0.09 W, above the 0.002 W
     floor: app 1 52 s of tracking, app 2 2 s *)
  blame "app 1 alone on the receiver" a1 6.0;
  blame "app 2 only for its own fix" a2 1.6;
  System.shutdown sys

(* Two lit surfaces, alone and together: each app's display blame is its
   attribution rail's energy. *)
let test_display_blame_matches_app_rails () =
  let sys = System.phone () in
  let audit = Audit.attach sys in
  let a = (System.new_app sys ~name:"video").System.app_id in
  let b = (System.new_app sys ~name:"chat").System.app_id in
  let d = System.display sys in
  let module D = Psbox_hw.Display in
  D.set_surface d ~app:a ~pixels:1_000_000 ~luminance:0.8;
  System.run_for sys (Time.sec 2);
  D.set_surface d ~app:b ~pixels:500_000 ~luminance:0.5;
  System.run_for sys (Time.sec 3);
  D.set_surface d ~app:a ~pixels:200_000 ~luminance:1.0;
  System.run_for sys (Time.sec 1);
  D.remove_surface d ~app:b;
  System.run_for sys (Time.sec 2);
  check_conserved audit;
  let now = System.now sys in
  List.iter
    (fun app ->
      let rail_j =
        Psbox_hw.Power_rail.energy_j (D.app_rail d ~app) ~from:0 ~until:now
      in
      Alcotest.(check bool)
        (Printf.sprintf "app %d lit the panel" app)
        true (rail_j > 0.0);
      check_rel
        (Printf.sprintf "app %d display blame" app)
        rail_j
        (sum_rows audit ~rail:"display" ~app))
    [ a; b ];
  System.shutdown sys

(* The attach memo holds its machines weakly: a process that builds,
   audits and drops machine after machine keeps flat live memory. A memo
   that kept one binding per machine ever attached grew by about 8 words
   per machine. The memo's ephemeron table drops dead bindings when it
   resizes, so how many it holds at a given instant depends on how far the
   GC has got; a major cycle every 10 machines (a machine that does any
   work sees several) keeps that number small and the reading exact. The
   first batch grows the table to its working size; the second must not
   grow the heap. *)
let test_attach_memo_bounded () =
  let saved = Audit.report_mode () in
  Audit.set_report_mode false;
  Fun.protect
    ~finally:(fun () -> Audit.set_report_mode saved)
    (fun () ->
      let n = 2000 in
      let batch () =
        for i = 1 to n do
          ignore (Audit.attach (System.create ()) : Audit.t);
          if i mod 10 = 0 then Gc.major ()
        done
      in
      let live_words () =
        Gc.compact ();
        (Gc.stat ()).Gc.live_words
      in
      batch ();
      let before = live_words () in
      batch ();
      let per = float_of_int (live_words () - before) /. float_of_int n in
      Alcotest.(check bool)
        (Printf.sprintf "%.2f live words per dropped machine" per)
        true (per < 1.0))

let suite =
  [
    Alcotest.test_case "random workloads: per-rail bit-exact conservation"
      `Slow test_conservation_property;
    Alcotest.test_case "co-run exercises the full cause taxonomy" `Quick
      test_causes_and_totals;
    Alcotest.test_case "balloon blame insulation + stay_blame" `Quick
      test_balloon_blame_insulation;
    Alcotest.test_case "audit is a pure observer" `Quick test_pure_observer;
    Alcotest.test_case "no GPS blame after an app leaves" `Quick
      test_gps_departed_app;
    Alcotest.test_case "display blame matches the app rails" `Quick
      test_display_blame_matches_app_rails;
    Alcotest.test_case "attached machines stay collectable" `Quick
      test_attach_memo_bounded;
  ]
