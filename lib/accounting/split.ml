open Psbox_engine

type result = (int * float) list

let add acc app e =
  let cur = match List.assoc_opt app acc with Some x -> x | None -> 0.0 in
  (app, cur +. e) :: List.remove_assoc app acc

let fold_segments tl usages ~from ~until ~f =
  let segs = Usage.segments usages ~from ~until in
  List.fold_left
    (fun acc seg ->
      let energy = Timeline.integrate tl seg.Usage.t0 seg.Usage.t1 in
      f acc seg energy)
    [] segs
  |> List.sort compare

let usage_split tl usages ~from ~until =
  fold_segments tl usages ~from ~until ~f:(fun acc seg energy ->
      let total = List.fold_left (fun a (_, s) -> a +. s) 0.0 seg.Usage.shares in
      if total <= 0.0 then acc
      else
        List.fold_left
          (fun acc (app, share) -> add acc app (energy *. share /. total))
          acc seg.Usage.shares)

let even_split tl usages ~from ~until =
  fold_segments tl usages ~from ~until ~f:(fun acc seg energy ->
      match seg.Usage.shares with
      | [] -> acc
      | shares ->
          let n = float_of_int (List.length shares) in
          List.fold_left (fun acc (app, _) -> add acc app (energy /. n)) acc shares)

let last_entity tl usages ~from ~until =
  let segs = Usage.segments usages ~from ~until in
  let last = ref None in
  List.fold_left
    (fun acc seg ->
      let energy = Timeline.integrate tl seg.Usage.t0 seg.Usage.t1 in
      match seg.Usage.shares with
      | [] -> (
          (* tail power goes to the most recent user *)
          match !last with Some app -> add acc app energy | None -> acc)
      | shares ->
          (* the dominant user both gets this segment's split and becomes
             the "last" entity *)
          let dominant, _ =
            List.fold_left
              (fun (ba, bs) (a, s) -> if s > bs then (a, s) else (ba, bs))
              (fst (List.hd shares), -1.0)
              shares
          in
          last := Some dominant;
          let total = List.fold_left (fun a (_, s) -> a +. s) 0.0 shares in
          List.fold_left
            (fun acc (app, share) -> add acc app (energy *. share /. total))
            acc shares)
    [] segs
  |> List.sort compare

let shared_baseline tl ~idle_w usages ~from ~until =
  fold_segments tl usages ~from ~until ~f:(fun acc seg energy ->
      match seg.Usage.shares with
      | [] -> acc
      | shares ->
          let dur = Time.to_sec_f (seg.Usage.t1 - seg.Usage.t0) in
          let baseline = Float.min energy (idle_w *. dur) in
          let dynamic = energy -. baseline in
          let n = float_of_int (List.length shares) in
          let total = List.fold_left (fun a (_, s) -> a +. s) 0.0 shares in
          List.fold_left
            (fun acc (app, share) ->
              add acc app ((baseline /. n) +. (dynamic *. share /. total)))
            acc shares)

let windowed_by_count ?(window = Time.ms 100) tl usages ~from ~until =
  let acc = ref [] in
  let cursor = ref from in
  while !cursor < until do
    let w_end = min until (!cursor + window) in
    let energy = Timeline.integrate tl !cursor w_end in
    (* requests whose service begins in this window *)
    let counts = Hashtbl.create 8 in
    List.iter
      (fun s ->
        if s.Usage.start >= !cursor && s.Usage.start < w_end then begin
          let c =
            match Hashtbl.find_opt counts s.Usage.app with
            | Some c -> c
            | None -> 0
          in
          Hashtbl.replace counts s.Usage.app (c + 1)
        end)
      usages;
    let total = Hashtbl.fold (fun _ c a -> a + c) counts 0 in
    if total > 0 then
      Hashtbl.iter
        (fun app c ->
          acc :=
            add !acc app (energy *. float_of_int c /. float_of_int total))
        counts;
    cursor := w_end
  done;
  List.sort compare !acc

let total_attributed result = List.fold_left (fun a (_, e) -> a +. e) 0.0 result

(* ------------------------------------------------------------------ *)
(* Online usage-proportional splitting, fed by the power bus.

   The offline [usage_split] reconstructs constant-share segments from a
   full usage trace and integrates the rail timeline over each — O(history)
   per query. The live splitter keeps only the current power level and the
   current share table, and settles [w * share/total * dt] into per-app
   accumulators at every boundary (a power transition announced on the bus,
   or a share change reported by the scheduler/driver). Same arithmetic,
   same segment boundaries, O(apps) per event and O(1) state. *)

(* One float in a float-only record, which stores it unboxed; a float
   field of a mixed record would box on every store. *)
type cell = { mutable v : float }

(* Where an app has no accumulator: never settled, never written. *)
let no_cell = { v = 0.0 }

type live = {
  cur_w : cell; (* the rail's draw *)
  mutable last_t : Time.t;
  shares : Shares.t; (* every share > 1e-9 *)
  mutable acc : cell array; (* app -> joules; [no_cell] until settled *)
  mutable lsub : Psbox_engine.Bus.subscription option;
  mutable ssub : Psbox_engine.Bus.subscription option;
      (* share-bus feed, when wired by a live_* constructor *)
}

(* [Time.to_sec_f] is written out so the floats stay unboxed. *)
let live_settle lv ~at =
  let dt = float_of_int (at - lv.last_t) /. 1e9 in
  if dt > 0.0 then begin
    let sh = lv.shares in
    let total = sh.total.sum in
    if total > 0.0 then
      for i = 0 to sh.len - 1 do
        let app = sh.apps.(i) in
        if app >= Array.length lv.acc then begin
          let a = Array.make (max 8 (2 * app)) no_cell in
          Array.blit lv.acc 0 a 0 (Array.length lv.acc);
          lv.acc <- a
        end;
        let c = lv.acc.(app) in
        let c =
          if c != no_cell then c
          else begin
            let c = { v = 0.0 } in
            lv.acc.(app) <- c;
            c
          end
        in
        c.v <- c.v +. (lv.cur_w.v *. dt *. sh.shares.(i) /. total)
      done;
    lv.last_t <- at
  end
  else if dt = 0.0 then ()
  else invalid_arg "Split.live: time went backwards"

let live rail ~from =
  let lv =
    {
      cur_w = { v = Psbox_hw.Power_rail.power rail };
      last_t = from;
      shares = Shares.create ();
      acc = [||];
      lsub = None;
      ssub = None;
    }
  in
  lv.lsub <-
    Some
      (Psbox_engine.Bus.subscribe
         (Psbox_hw.Power_rail.transitions rail)
         (fun (tr : Psbox_hw.Power_rail.transition) ->
           live_settle lv ~at:tr.at;
           lv.cur_w.v <- tr.draws.after_w));
  lv

let live_set_share lv ~at ~app share =
  if app < 0 then
    invalid_arg (Printf.sprintf "Split.live_set_share: app %d is negative" app);
  if share < 0.0 then invalid_arg "Split.live_set_share: negative share";
  live_settle lv ~at;
  Shares.set lv.shares ~app (if share > 1e-9 then share else 0.0)

let live_read lv ~until =
  live_settle lv ~at:until;
  let r = ref [] in
  for app = Array.length lv.acc - 1 downto 0 do
    let c = lv.acc.(app) in
    if c != no_cell then r := (app, c.v) :: !r
  done;
  !r

let live_detach lv =
  (match lv.lsub with
  | Some s ->
      Psbox_engine.Bus.unsubscribe s;
      lv.lsub <- None
  | None -> ());
  match lv.ssub with
  | Some s ->
      Psbox_engine.Bus.unsubscribe s;
      lv.ssub <- None
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Auto-wired live splitters: the scheduler and device drivers publish
   their own share changes, so nobody has to call [live_set_share] by
   hand. *)

(* Every share change streams into the splitter. *)
let follow lv bus =
  lv.ssub <-
    Some
      (Psbox_engine.Bus.subscribe bus
         (fun (c : Psbox_kernel.Temporal_sched.share_change) ->
           live_set_share lv ~at:c.at ~app:c.app (float_of_int c.share)));
  lv

let live_cpu smp ~from =
  let module Smp = Psbox_kernel.Smp in
  let lv = live (Psbox_hw.Cpu.rail (Smp.cpu smp)) ~from in
  (* seed with whoever is on-core right now; later changes stream in *)
  let counts = Hashtbl.create 4 in
  for core = 0 to Smp.cores smp - 1 do
    let app = Smp.running_app smp ~core in
    if app >= 0 then
      let c = match Hashtbl.find_opt counts app with Some c -> c | None -> 0 in
      Hashtbl.replace counts app (c + 1)
  done;
  Hashtbl.iter
    (fun app c -> live_set_share lv ~at:from ~app (float_of_int c))
    counts;
  follow lv (Smp.share_bus smp)

let live_sched s ~from =
  let module Ts = Psbox_kernel.Temporal_sched in
  follow (live (Ts.rail s) ~from) (Ts.share_bus s)

let live_system sys ~from =
  let module System = Psbox_kernel.System in
  let module Ad = Psbox_kernel.Accel_driver in
  [ live_cpu (System.smp sys) ~from ]
  @ (if System.has_gpu sys then [ live_sched (Ad.sched (System.gpu sys)) ~from ]
     else [])
  @ (if System.has_dsp sys then [ live_sched (Ad.sched (System.dsp sys)) ~from ]
     else [])
  @
  if System.has_wifi sys then
    [ live_sched (Psbox_kernel.Net_sched.sched (System.net sys)) ~from ]
  else []
