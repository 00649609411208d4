(** Kernel tasks (processes/threads).

    A task's behaviour is a pull-based program: whenever the previous action
    finishes, the scheduler calls the program for the next one. Programs may
    call kernel services (submit an accelerator command, queue a packet, ...)
    before returning [Block]; whoever completes the service wakes the task. *)

type state = Runnable | Running | Blocked | Exited

type action =
  | Run of Psbox_engine.Time.span
      (** Execute on the CPU for this long (subject to preemption). *)
  | Block  (** Wait for an external wake (the program arranged one). *)
  | Sleep of Psbox_engine.Time.span  (** Block, wake after the given span. *)
  | Yield  (** Give up the CPU but stay runnable. *)
  | Exit

type program = unit -> action

type t = {
  tid : int;
  app : int;
  name : string;
  weight : float;
  mutable state : state;
  mutable core : int;
  mutable vruntime : float;  (** weighted runtime, nanoseconds *)
  mutable remaining : Psbox_engine.Time.span;  (** left of the current [Run] *)
  mutable program : program;
  mutable wake_pending : bool;
      (** a wake arrived while the task was still [Running]/[Runnable];
          consume it instead of blocking *)
  mutable last_wake : Psbox_engine.Time.t;  (** for latency statistics *)
  mutable slot : int;
      (** the task's dense index on the machine that spawned it, [-1]
          before its spawn (see {!Smp.spawn}) *)
}

val create :
  app:int -> name:string -> ?weight:float -> ?core:int -> program:program ->
  unit -> t

val none : t
(** The task no core runs ([Exited], app [-1]): what an allocation-free
    query that finds nothing answers. Never mutate it. *)

val is_none : t -> bool
(** [is_none t] is [t == none]. *)

val reset_ids : unit -> unit
(** Restart tid numbering from 1 in the current domain. Tids are
    domain-local; a fleet device calls this at boot so its tids depend only
    on its own spawn order, never on sibling devices or prior runs. *)

val is_runnable : t -> bool
