module ESet = Set.Make (struct
  type t = float * int * Entity.t

  let compare (v1, id1, _) (v2, id2, _) =
    let c = compare v1 v2 in
    if c <> 0 then c else compare id1 id2
end)

type t = {
  mutable set : ESet.t;
  mutable running : Entity.t option;
  mutable min_vrt : float;
}

let nice0_weight = 1024.0
let wakeup_bonus = 1_000_000.0 (* 1 ms of vruntime headroom for wakers *)

let create () = { set = ESet.empty; running = None; min_vrt = 0.0 }

let key e = (e.Entity.vruntime, e.Entity.eid, e)

let enqueue rq e =
  if not e.Entity.on_rq then begin
    e.Entity.on_rq <- true;
    rq.set <- ESet.add (key e) rq.set
  end

let dequeue rq e =
  if e.Entity.on_rq then begin
    e.Entity.on_rq <- false;
    rq.set <- ESet.remove (key e) rq.set
  end

let leftmost rq =
  match ESet.min_elt_opt rq.set with Some (_, _, e) -> Some e | None -> None

let queued rq = List.map (fun (_, _, e) -> e) (ESet.elements rq.set)
let n_queued rq = ESet.cardinal rq.set
let curr rq = rq.running
let set_curr rq e = rq.running <- e
let min_vruntime rq = rq.min_vrt

let update_min_vruntime rq =
  let candidates =
    (match rq.running with Some e -> [ e.Entity.vruntime ] | None -> [])
    @ match ESet.min_elt_opt rq.set with Some (v, _, _) -> [ v ] | None -> []
  in
  match candidates with
  | [] -> ()
  | vs -> rq.min_vrt <- Float.max rq.min_vrt (List.fold_left Float.min Float.infinity vs)

let place_new rq e = e.Entity.vruntime <- Float.max e.Entity.vruntime rq.min_vrt

let place_woken rq e =
  e.Entity.vruntime <- Float.max e.Entity.vruntime (rq.min_vrt -. wakeup_bonus)

(* Only the running entity is charged, and it is off the queue while it
   runs: a queued entity's vruntime is its key in [set]. *)
let charge rq e span =
  if e.Entity.on_rq then invalid_arg "Cfs.charge: the entity is queued";
  let delta = float_of_int span *. nice0_weight /. e.Entity.weight in
  e.Entity.vruntime <- e.Entity.vruntime +. delta;
  (match e.Entity.kind with
  | Entity.EGroup g -> (
      (* bill the inner running task too, for intra-group fairness *)
      match g.Entity.gcurr with
      | Some t ->
          t.Task.vruntime <-
            t.Task.vruntime +. (float_of_int span *. nice0_weight /. t.Task.weight)
      | None -> ())
  | Entity.ETask t -> t.Task.vruntime <- e.Entity.vruntime);
  update_min_vruntime rq
