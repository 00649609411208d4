(* With a retention window, an append first expires every entry stamped
   more than the window before it. *)
type 'a events = { retention : Time.span option; ring : 'a Ring.t }

let events ?retention () =
  (match retention with
  | Some r when r <= 0 -> invalid_arg "Trace: retention must be positive"
  | _ -> ());
  { retention; ring = Ring.create () }

let emit r stamp v =
  (match r.retention with
  | Some keep ->
      while Ring.length r.ring > 0 && Ring.oldest_stamp r.ring < stamp - keep do
        Ring.drop_oldest r.ring
      done
  | None -> ());
  Ring.push r.ring stamp v

let to_list tr = Ring.fold_back (fun t v acc -> (t, v) :: acc) tr.ring []
let values tr = Ring.fold_back (fun _ v acc -> v :: acc) tr.ring []
let count tr = Ring.length tr.ring

type 'a span = { start : Time.t; stop : Time.t; tag : 'a }
