open Psbox_engine
module Lte = Psbox_hw.Lte

type result = {
  alone_mj_per_xfer : float;
  corun_mj_per_xfer : float;
  swing_pct : float;
}

(* The observed app uploads 50 KB every 20 s; its per-upload energy window
   covers the upload plus 4 s of aftermath (promotion + its share of the
   tail). Optionally a chatter app pings every 3 s and keeps the radio in
   DCH/FACH the whole time. *)
let per_transfer_mj ~chatter =
  let sim = Sim.create () in
  let radio = Lte.create sim in
  let tl = Psbox_hw.Power_rail.timeline (Lte.rail radio) in
  if chatter then begin
    let rec ping () =
      Lte.send radio ~app:2 ~bytes:2_000 ~on_sent:(fun () -> ());
      ignore (Sim.schedule_after sim (Time.sec 3) ping)
    in
    ping ()
  end;
  let windows = ref [] in
  let rec upload n =
    if n > 0 then begin
      let t0 = Sim.now sim in
      Lte.send radio ~app:1 ~bytes:50_000 ~on_sent:(fun () -> ());
      ignore
        (Sim.schedule_after sim (Time.sec 4) (fun () ->
             windows := Timeline.integrate tl t0 (Sim.now sim) :: !windows));
      ignore (Sim.schedule_after sim (Time.sec 20) (fun () -> upload (n - 1)))
    end
  in
  (* let the radio settle first *)
  ignore (Sim.schedule_after sim (Time.sec 30) (fun () -> upload 5));
  Sim.run_until sim (Time.sec 160);
  Stats.mean (Array.of_list (List.map (fun j -> j *. 1e3) !windows))

let run ?(seed = 71) () =
  ignore seed;
  let alone = per_transfer_mj ~chatter:false in
  let corun = per_transfer_mj ~chatter:true in
  let result =
    {
      alone_mj_per_xfer = alone;
      corun_mj_per_xfer = corun;
      swing_pct = Common.pct alone corun;
    }
  in
  let report =
    {
      Report.id = "lte";
      title = "Cellular interfaces: uncontrollable power states (paper Sec. 7)";
      items =
        [
          Report.table
            ~headers:[ "scenario"; "energy around one 50 KB upload" ]
            [
              [ "radio otherwise idle"; Report.fmt_mj alone ];
              [
                "background chatter keeps the radio hot";
                Printf.sprintf "%s (%s)" (Report.fmt_mj corun)
                  (Report.fmt_pct result.swing_pct);
              ];
            ];
          Report.Text
            "The RRC promotion/demotion timers belong to the network, so \
             the OS cannot virtualize them per sandbox: the same upload's \
             energy swings with the neighbours' traffic, and psbox on \
             cellular must wait for hardware support (the paper's Sec. 7 \
             conclusion).";
        ];
    }
  in
  (report, result)
