type state = Runnable | Running | Blocked | Exited

type action =
  | Run of Psbox_engine.Time.span
  | Block
  | Sleep of Psbox_engine.Time.span
  | Yield
  | Exit

type program = unit -> action

type t = {
  tid : int;
  app : int;
  name : string;
  weight : float;
  mutable state : state;
  mutable core : int;
  mutable vruntime : float;
  mutable remaining : Psbox_engine.Time.span;
  mutable program : program;
  mutable wake_pending : bool;
  mutable last_wake : Psbox_engine.Time.t;
  mutable slot : int;
}

(* Domain-local so concurrent device simulations number their tasks
   independently; reset per device so tids depend only on that device's own
   spawn order. *)
let next_tid = Domain.DLS.new_key (fun () -> ref 0)
let reset_ids () = Domain.DLS.get next_tid := 0

let create ~app ~name ?(weight = 1024.0) ?(core = 0) ~program () =
  let next = Domain.DLS.get next_tid in
  incr next;
  {
    tid = !next;
    app;
    name;
    weight;
    state = Runnable;
    core;
    vruntime = 0.0;
    remaining = 0;
    program;
    wake_pending = false;
    last_wake = Psbox_engine.Time.zero;
    slot = -1;
  }

(* tid 0 is never issued: fresh tids start at 1 *)
let none =
  {
    tid = 0;
    app = -1;
    name = "";
    weight = 1024.0;
    state = Exited;
    core = -1;
    vruntime = 0.0;
    remaining = 0;
    program = (fun () -> Exit);
    wake_pending = false;
    last_wake = Psbox_engine.Time.zero;
    slot = -1;
  }

let is_none t = t == none

let is_runnable t = t.state = Runnable || t.state = Running
