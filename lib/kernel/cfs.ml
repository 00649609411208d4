(* The queue is two parallel arrays sorted by (key, eid): [keys] holds
   each entity's vruntime as it was at enqueue, unboxed in a flat float
   array, and [ents] the entities. A lookup searches by the entity's
   current vruntime, so the order and the matching are a persistent set's
   keyed at insertion, and nothing on the queue allocates once the arrays
   have grown. Queues hold a few entities, so entries shift in plain
   loops: [Array.blit] is a C call, and with it a dequeue and an enqueue
   on a three-entity queue took 61 ns instead of 37 (2-vCPU Xeon). *)
type t = {
  mutable keys : float array;
  mutable ents : Entity.t array;
  mutable n : int;
  mutable running : Entity.t option;
  vrt : floor;
}

(* float-only, so updating the floor stores an unboxed float *)
and floor = { mutable min_vrt : float }

let nice0_weight = 1024.0
let wakeup_bonus = 1_000_000.0 (* 1 ms of vruntime headroom for wakers *)

let create () =
  { keys = [||]; ents = [||]; n = 0; running = None; vrt = { min_vrt = 0.0 } }

(* Whether entry [i] sorts before the key [(k, id)]. *)
let before rq i k id =
  let c = Float.compare rq.keys.(i) k in
  c < 0 || (c = 0 && rq.ents.(i).Entity.eid < id)

(* The first entry that does not sort before [(k, id)]. *)
let search rq k id =
  let lo = ref 0 and hi = ref rq.n in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if before rq mid k id then lo := mid + 1 else hi := mid
  done;
  !lo

let holds rq i k id =
  i < rq.n && Float.compare rq.keys.(i) k = 0 && rq.ents.(i).Entity.eid = id

let grow rq =
  let cap = max 4 (2 * rq.n) in
  let keys = Array.make cap 0.0 and ents = Array.make cap Entity.none in
  Array.blit rq.keys 0 keys 0 rq.n;
  Array.blit rq.ents 0 ents 0 rq.n;
  rq.keys <- keys;
  rq.ents <- ents

(* Remove the entry keyed by [e]'s current vruntime; its index, or -1 if
   no entry has that key. *)
let remove rq e =
  let k = e.Entity.vruntime and id = e.Entity.eid in
  let i = search rq k id in
  if holds rq i k id then begin
    let n = rq.n - 1 in
    for j = i to n - 1 do
      rq.keys.(j) <- rq.keys.(j + 1);
      rq.ents.(j) <- rq.ents.(j + 1)
    done;
    rq.ents.(n) <- Entity.none;
    rq.n <- n;
    i
  end
  else -1

let enqueue rq e =
  if not e.Entity.on_rq then begin
    e.Entity.on_rq <- true;
    let k = e.Entity.vruntime and id = e.Entity.eid in
    let i = search rq k id in
    if not (holds rq i k id) then begin
      if rq.n = Array.length rq.keys then grow rq;
      for j = rq.n downto i + 1 do
        rq.keys.(j) <- rq.keys.(j - 1);
        rq.ents.(j) <- rq.ents.(j - 1)
      done;
      rq.keys.(i) <- k;
      rq.ents.(i) <- e;
      rq.n <- rq.n + 1
    end
  end

let dequeue rq e =
  if e.Entity.on_rq then begin
    e.Entity.on_rq <- false;
    ignore (remove rq e : int)
  end

let leftmost rq = if rq.n = 0 then None else Some rq.ents.(0)

let first_other rq e =
  let i = ref 0 in
  while !i < rq.n && rq.ents.(!i).Entity.eid = e.Entity.eid do
    incr i
  done;
  if !i < rq.n then rq.ents.(!i) else Entity.none

let find_first rq p =
  let i = ref 0 in
  while !i < rq.n && not (p rq.ents.(!i)) do
    incr i
  done;
  if !i < rq.n then rq.ents.(!i) else Entity.none

(* [dequeue] on each matching entry, in queue order: a removal at or
   before the cursor shifts the next entry under it. *)
let dequeue_if rq p =
  let i = ref 0 in
  while !i < rq.n do
    let e = rq.ents.(!i) in
    if p e && e.Entity.on_rq then begin
      e.Entity.on_rq <- false;
      let j = remove rq e in
      if j < 0 || j > !i then incr i
    end
    else incr i
  done

let n_queued rq = rq.n
let curr rq = rq.running
let set_curr rq e = rq.running <- e
let min_vruntime rq = rq.vrt.min_vrt

(* The floor rises to the least of the running entity's vruntime and the
   leftmost key. *)
let update_min_vruntime rq =
  match rq.running with
  | Some e ->
      let v = e.Entity.vruntime in
      let m = if rq.n > 0 then Float.min v rq.keys.(0) else v in
      rq.vrt.min_vrt <- Float.max rq.vrt.min_vrt m
  | None ->
      if rq.n > 0 then rq.vrt.min_vrt <- Float.max rq.vrt.min_vrt rq.keys.(0)

let place_new rq e =
  e.Entity.vruntime <- Float.max e.Entity.vruntime rq.vrt.min_vrt

let place_woken rq e =
  e.Entity.vruntime <- Float.max e.Entity.vruntime (rq.vrt.min_vrt -. wakeup_bonus)

(* Only the running entity is charged, and it is off the queue while it
   runs: a queued entity's vruntime is its key. *)
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
