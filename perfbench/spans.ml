(* The benchmark's own span recorder and the order statistics shared by
   every metric.

   A span wraps one call into a layer's public API: name, start, end,
   the span that was open when it began (its parent) and the iteration it
   belongs to. Spans are kept in memory and written as Chrome trace JSON
   when the run ends. Recording is off unless the run is traced, and then
   costs two clock reads and one small record per call. *)

module Tracing = Psbox_telemetry.Tracing

type t = {
  id : int;
  parent : int;  (** 0: a root span *)
  name : string;
  iter : int;  (** -1: set-up or a layer probe *)
  t0 : float;  (** seconds on {!now}'s clock *)
  t1 : float;
}

(* Seconds on the system-wide monotonic clock, to the nanosecond; a
   parent and its children read the same clock. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let recording = ref false
let log : t list ref = ref []
let next_id = ref 0
let open_span = ref 0
let iteration = ref (-1)

(* A span timed elsewhere, e.g. by a child process on the same clock. *)
let add ~name ~parent t0 t1 =
  incr next_id;
  log := { id = !next_id; parent; name; iter = !iteration; t0; t1 } :: !log

(* [with_ name f] runs [f] inside a span; spans opened by [f] become its
   children. *)
let with_ name f =
  if not !recording then f ()
  else begin
    incr next_id;
    let id = !next_id and parent = !open_span in
    open_span := id;
    let t0 = now () in
    Fun.protect
      ~finally:(fun () ->
        log :=
          { id; parent; name; iter = !iteration; t0; t1 = now () }
          :: !log;
        open_span := parent)
      f
  end

let spans () = List.rev !log

let durations name =
  List.filter_map
    (fun s -> if s.name = name then Some (s.t1 -. s.t0) else None)
    (spans ())

(* Per span name: calls, total seconds, and self seconds — each span's
   duration minus the part its children cover. Children of one span never
   overlap: they run one after another on the recording domain. *)
let self_table () =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child s.parent
          ((s.t1 -. s.t0)
          +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    !log;
  let rows = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let d = s.t1 -. s.t0 in
      let self = d -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id) in
      let n, tot, slf =
        Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt rows s.name)
      in
      Hashtbl.replace rows s.name (n + 1, tot +. d, slf +. self))
    !log;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) rows [] |> List.sort compare

(* Chrome trace: one track, spans as complete events stamped with their
   id, parent and iteration, time relative to the first span. *)
let write_chrome path =
  let all = spans () in
  let origin = List.fold_left (fun m s -> Float.min m s.t0) infinity all in
  let ns t = int_of_float ((t -. origin) *. 1e9) in
  let ev s =
    {
      Tracing.track = "perfbench";
      lane = (if s.iter >= 0 then "iterations" else "setup+probes");
      kind = Tracing.Span;
      name = s.name;
      ts = ns s.t0;
      dur = ns s.t1 - ns s.t0;
      args =
        [
          ("span", float_of_int s.id);
          ("parent", float_of_int s.parent);
          ("iter", float_of_int s.iter);
        ];
    }
  in
  Psbox_telemetry.Chrome_trace.write path (List.map ev all)

(* ---- order statistics ----------------------------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks. *)
let quantile q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let h = q *. float_of_int (n - 1) in
    let i = int_of_float (Float.floor h) in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((h -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

(* The highest percentile with at least ten samples beyond it — the
   (n-10)-th smallest sample — but at most p99: beyond that, one run's
   worst hiccups decide it. Returned with its percentile. Needs twenty
   samples, so the tail is never below the median. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < 20 then None
  else
    let p = Float.min 0.99 (float_of_int (n - 10) /. float_of_int n) in
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    Some (a.(rank - 1), 100.0 *. p)
