(* Both recorders append to a ring; with a retention window, an append
   first expires every entry stamped more than the window before it. *)
type 'a recorder = { retention : Time.span option; ring : 'a Ring.t }

let recorder retention =
  (match retention with
  | Some r when r <= 0 -> invalid_arg "Trace: retention must be positive"
  | _ -> ());
  { retention; ring = Ring.create () }

let append r stamp v =
  (match r.retention with
  | Some keep ->
      while Ring.length r.ring > 0 && Ring.oldest_stamp r.ring < stamp - keep do
        Ring.drop_oldest r.ring
      done
  | None -> ());
  Ring.push r.ring stamp v

type 'a events = 'a recorder

let events ?retention () = recorder retention
let emit = append
let to_list tr = Ring.fold_back (fun t v acc -> (t, v) :: acc) tr.ring []
let values tr = Ring.fold_back (fun _ v acc -> v :: acc) tr.ring []
let count tr = Ring.length tr.ring

type 'a span = { start : Time.t; stop : Time.t; tag : 'a }

type 'a spans = {
  completed : 'a span recorder; (* stamped with their stop *)
  mutable live : (Time.t * 'a) list;
}

let spans ?retention () = { completed = recorder retention; live = [] }
let complete tr start stop tag = append tr.completed stop { start; stop; tag }

let open_span tr t tag =
  if List.exists (fun (_, tag') -> tag' = tag) tr.live then
    invalid_arg "Trace.open_span: tag already open";
  tr.live <- (t, tag) :: tr.live

let close_span ?pp tr t tag =
  let rec take acc = function
    | [] ->
        let shown =
          match pp with
          | Some pp -> Format.asprintf "%a" pp tag
          | None -> "<no printer given>"
        in
        invalid_arg
          (Printf.sprintf
             "Trace.close_span: no open span with tag %s (%d span(s) open)"
             shown (List.length tr.live))
    | (start, tag') :: rest when tag' = tag ->
        complete tr start t tag;
        tr.live <- List.rev_append acc rest
    | entry :: rest -> take (entry :: acc) rest
  in
  take [] tr.live

let is_open tr tag = List.exists (fun (_, tag') -> tag' = tag) tr.live

let open_since tr tag =
  List.find_map (fun (t, tag') -> if tag' = tag then Some t else None) tr.live

let close_all tr t =
  List.iter (fun (start, tag) -> complete tr start t tag) tr.live;
  tr.live <- []

let by_start_stop a b =
  let c = Int.compare a.start b.start in
  if c <> 0 then c else Int.compare a.stop b.stop

(* Stable-sorting the newest-first list fixes the order of spans with equal
   bounds: the later-completed one comes first. *)
let to_spans tr =
  let newest_first = ref [] in
  Ring.iter tr.completed.ring (fun _ s -> newest_first := s :: !newest_first);
  List.stable_sort by_start_stop !newest_first

let total_duration tr pred =
  let sum = ref 0 in
  Ring.iter tr.completed.ring (fun _ s ->
      if pred s.tag then sum := !sum + (s.stop - s.start));
  !sum

let overlaps a b = min a.stop b.stop > max a.start b.start
