type group = {
  psbox_id : int;
  gcore : int;
  mutable gtasks : Task.t list;
  mutable gcurr : Task.t option;
  mutable loan : float;
}

type kind = ETask of Task.t | EGroup of group

type t = {
  eid : int;
  kind : kind;
  weight : float;
  mutable vruntime : float;
  mutable on_rq : bool;
}

(* Domain-local, reset per device — see Task.next_tid. *)
let next_eid = Domain.DLS.new_key (fun () -> ref 0)
let reset_ids () = Domain.DLS.get next_eid := 0

let fresh_eid () =
  let next = Domain.DLS.get next_eid in
  incr next;
  !next

let of_task task =
  {
    eid = fresh_eid ();
    kind = ETask task;
    weight = task.Task.weight;
    vruntime = task.Task.vruntime;
    on_rq = false;
  }

let group ~psbox_id ~core =
  {
    eid = fresh_eid ();
    kind = EGroup { psbox_id; gcore = core; gtasks = []; gcurr = None; loan = 0.0 };
    weight = 1024.0;
    vruntime = 0.0;
    on_rq = false;
  }

(* eid 0 is never issued: fresh eids start at 1 *)
let none =
  {
    eid = 0;
    kind = EGroup { psbox_id = -1; gcore = -1; gtasks = []; gcurr = None; loan = 0.0 };
    weight = 1024.0;
    vruntime = 0.0;
    on_rq = false;
  }

let is_none e = e == none

let is_group e = match e.kind with EGroup _ -> true | ETask _ -> false

let app_of e =
  match e.kind with ETask t -> t.Task.app | EGroup g -> g.psbox_id

let runnable e =
  match e.kind with
  | ETask t -> Task.is_runnable t
  | EGroup g -> List.exists Task.is_runnable g.gtasks

let group_pick g =
  let best acc t =
    if not (Task.is_runnable t) then acc
    else
      match acc with
      | None -> Some t
      | Some b -> if t.Task.vruntime < b.Task.vruntime then Some t else acc
  in
  List.fold_left best None g.gtasks
