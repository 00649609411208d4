(** CFS scheduling entities.

    An entity is either a bare task or a psbox group entity — the per-core
    container for a sandboxed app's tasks ("similar to a Linux cgroup, a
    psbox has a set of scheduling entities {E}, one entity on each core",
    §4.2). A group entity keeps a collective credit (vruntime) and its own
    loan balance for the scheduling-loan mechanism. *)

type group = {
  psbox_id : int;  (** the sandboxed app's id *)
  gcore : int;
  mutable gtasks : Task.t list;  (** the app's tasks assigned to this core *)
  mutable gcurr : Task.t option;  (** inner task currently running *)
  mutable loan : float;  (** vruntime borrowed during the live balloon *)
}

type kind = ETask of Task.t | EGroup of group

type t = {
  eid : int;
  kind : kind;
  weight : float;
  mutable vruntime : float;
  mutable on_rq : bool;
}

val reset_ids : unit -> unit
(** Restart eid numbering from 1 in the current domain — see
    {!Task.reset_ids}. *)

val of_task : Task.t -> t

val group : psbox_id:int -> core:int -> t
(** A group entity at the nice-0 weight (1024). *)

val none : t
(** The entity no runqueue holds: what an allocation-free query that
    finds nothing answers. Never mutate it. *)

val is_none : t -> bool
(** [is_none e] is [e == none]. *)

val is_group : t -> bool

val app_of : t -> int
(** The app this entity belongs to (task's app or the group's psbox app). *)

val runnable : t -> bool
(** A task entity is runnable iff its task is; a group entity is runnable
    iff any of its tasks is. (A group inside a live balloon is forced to run
    even when empty — that is the scheduler's decision, not the entity's.) *)

val group_pick : group -> Task.t option
(** The runnable member task with the least vruntime, if any. *)
