module Tm = Psbox_telemetry.Metrics
module Tt = Psbox_telemetry.Tracing

(* Event-loop profiling: process-global handles resolved once at load,
   updated in the simulator's own store ([t.store]), so the per-event cost
   is a branch, an array load and a float store. *)
let m_fired = Tm.counter "sim.events_fired"
let m_scheduled = Tm.counter "sim.events_scheduled"
let m_cancelled = Tm.counter "sim.events_cancelled"
let m_reap_passes = Tm.counter "sim.reap_passes"
let m_reaped = Tm.counter "sim.tombstones_reaped"
let g_depth = Tm.gauge "sim.queue_depth"
let g_depth_max = Tm.gauge "sim.queue_depth_max"

type state = Pending | Fired | Cancelled

type backend = [ `Heap | `Wheel ]

type handle = int
(* (generation lsl idx_bits) lor idx, or [none] *)

(* ------------------------------------------------------------------ *)
(* Interned event labels                                                *)

(* A label is an index into a process-global table of pre-resolved
   [sim.events.<name>] counters. Interning happens once (under a mutex, so
   any domain may register); the fire path is then a branch plus an array
   load plus a counter bump — no string, closure, or hashtable traffic per
   event. The counter array is copy-on-grow behind an [Atomic], so readers
   never lock. *)
type label = int

let no_label = -1
let label_mu = Mutex.create ()
let label_ids : (string, int) Hashtbl.t = Hashtbl.create 16
let label_cells : Tm.counter array Atomic.t = Atomic.make [||]

let label name =
  Mutex.protect label_mu (fun () ->
      match Hashtbl.find_opt label_ids name with
      | Some id -> id
      | None ->
          let cells = Atomic.get label_cells in
          let id = Array.length cells in
          let c = Tm.counter ("sim.events." ^ name) in
          Atomic.set label_cells (Array.append cells [| c |]);
          Hashtbl.add label_ids name id;
          id)

let count_label store l = Tm.incr_in store (Atomic.get label_cells).(l)

(* ------------------------------------------------------------------ *)
(* Pooled event slots                                                   *)

(* A scheduled event lives in a [slot] record owned by the simulator's
   pool; the queue holds the slot's pool index. The public [handle] is an
   immediate int packing (generation, pool index): when a slot physically
   leaves the queue (fire, head-discard, bulk reap) it is released — its
   generation bumps and its index returns to the free stack — so a stale
   handle to a recycled slot no longer matches and [cancel]/[cancelled]
   on it are no-ops. With pooling on (the default) the released record
   itself is reused by the next [schedule_at], making the steady-state
   schedule/fire cycle allocation-free; with pooling off only the index is
   reused and every event gets a fresh record (the pre-pool behavior, kept
   as an A/B baseline for the qcheck equivalence property, the
   [psbox_sim --pool off] leg of the [all] golden and
   [bench/main.exe --pool=off]). *)
type slot = {
  mutable s_time : Time.t; (* also the queue key; a fire reads it here *)
  mutable s_fn : unit -> unit;
  mutable s_state : state;
  mutable s_label : label;
  s_idx : int;
}

(* The queue orders events by (time, seq), seq being the scheduling order,
   so same-instant events fire FIFO. *)
type t = {
  mutable clock : Time.t;
  mutable next_seq : int;
  q : Heap.t; (* (time, seq) -> pool index *)
  mutable dead : int; (* cancelled slots still buried in the queue *)
  pool : bool; (* recycle slot records (not just indices)? *)
  mutable slots : slot array; (* idx -> live record (dummy if pool off) *)
  mutable gens : int array; (* idx -> current generation *)
  mutable free : int array; (* free-index stack, [0 .. n_free-1] live *)
  mutable n_free : int;
  mutable hi : int; (* indices [0 .. hi-1] have been handed out *)
  mutable fired_n : int; (* int fired count (trace decimation) *)
  mutable depth_max : int;
  mutable gauges_dirty : bool; (* queue-depth gauges need a flush *)
  keep : int -> bool; (* the bulk reap's test, built once per simulator *)
  store : Tm.store;
      (* the metric store current when [create] made this simulator;
         every update inside its event loop lands here *)
  tracer : Tt.state; (* the creating domain's tracer state, likewise *)
}

let noop () = ()

let dummy_slot =
  { s_time = 0; s_fn = noop; s_state = Fired; s_label = no_label; s_idx = -1 }

(* Handles pack (generation lsl idx_bits) lor idx. 20 index bits bound the
   pool at ~1M simultaneously-live events; generations take the rest of
   the word (a given index must be recycled 2^42 times to wrap). *)
let idx_bits = 20
let idx_mask = (1 lsl idx_bits) - 1
let none = -1
let is_none h = h < 0

let default_backend () : backend = `Heap

(* The default pooling mode is domain-local: a worker domain (fleet shard)
   choosing it never races with, or leaks into, any other domain. Fresh
   domains start with pooling on; a CLI --pool choice must be re-applied
   inside each spawned domain (the fleet pool does). *)
let pooling_key = Domain.DLS.new_key (fun () -> true)
let set_default_pooling b = Domain.DLS.set pooling_key b
let default_pooling () = Domain.DLS.get pooling_key

(* Called exactly once per event, when its slot physically leaves the
   queue: on fire, on head tombstone discard, and on bulk reap. Bumps the
   generation (staling every outstanding handle) and returns the index to
   the free stack. *)
let release sim s =
  let idx = s.s_idx in
  sim.gens.(idx) <- sim.gens.(idx) + 1;
  s.s_fn <- noop;
  if not sim.pool then sim.slots.(idx) <- dummy_slot;
  sim.free.(sim.n_free) <- idx;
  sim.n_free <- sim.n_free + 1

(* The bulk reap's test: keep a pending event, release a tombstone. *)
let keep_pending sim idx =
  let s = sim.slots.(idx) in
  if s.s_state = Pending then true
  else begin
    release sim s;
    false
  end

let create ?pooling () =
  let pool =
    match pooling with Some p -> p | None -> default_pooling ()
  in
  let rec sim =
    {
      clock = Time.zero;
      next_seq = 0;
      q = Heap.create ();
      dead = 0;
      pool;
      slots = [||];
      gens = [||];
      free = [||];
      n_free = 0;
      hi = 0;
      fired_n = 0;
      depth_max = 0;
      gauges_dirty = false;
      keep = (fun idx -> keep_pending sim idx);
      store = Tm.current ();
      tracer = Tt.current ();
    }
  in
  sim

let now sim = sim.clock
let metrics sim = sim.store
let tracer sim = sim.tracer

(* -- pool plumbing -------------------------------------------------- *)

let grow_pool sim =
  if sim.hi > idx_mask then
    failwith "Sim: more than 2^20 simultaneously-live events";
  let cap = Array.length sim.slots in
  if sim.hi >= cap then begin
    let ncap = max 64 (2 * cap) in
    let slots = Array.make ncap dummy_slot in
    Array.blit sim.slots 0 slots 0 cap;
    sim.slots <- slots;
    let gens = Array.make ncap 0 in
    Array.blit sim.gens 0 gens 0 cap;
    sim.gens <- gens;
    let free = Array.make ncap 0 in
    Array.blit sim.free 0 free 0 sim.n_free;
    sim.free <- free
  end

(* Take a slot for a new event. With pooling on, a recycled index reuses
   its record in place (no allocation); a fresh index allocates its record
   once, at pool high-water growth. With pooling off, every event gets a
   fresh record. *)
let alloc_slot sim =
  if sim.n_free > 0 then begin
    sim.n_free <- sim.n_free - 1;
    let idx = sim.free.(sim.n_free) in
    if sim.pool then sim.slots.(idx)
    else begin
      let s =
        { s_time = 0; s_fn = noop; s_state = Pending; s_label = no_label;
          s_idx = idx }
      in
      sim.slots.(idx) <- s;
      s
    end
  end
  else begin
    grow_pool sim;
    let idx = sim.hi in
    sim.hi <- idx + 1;
    let s =
      { s_time = 0; s_fn = noop; s_state = Pending; s_label = no_label;
        s_idx = idx }
    in
    sim.slots.(idx) <- s;
    s
  end

let handle_of_slot sim s = (sim.gens.(s.s_idx) lsl idx_bits) lor s.s_idx

(* The slot behind [h], or [dummy_slot] if the handle is stale ([Fired]
   dummy state makes every stale query read as "already done"). *)
let deref sim h =
  if h < 0 then dummy_slot
  else begin
    let idx = h land idx_mask in
    if idx < sim.hi && sim.gens.(idx) = h lsr idx_bits then sim.slots.(idx)
    else dummy_slot
  end

(* -- scheduling ----------------------------------------------------- *)

let push sim label time fn =
  let s = alloc_slot sim in
  s.s_time <- time;
  s.s_fn <- fn;
  s.s_state <- Pending;
  s.s_label <- label;
  Heap.push sim.q ~time ~seq:sim.next_seq s.s_idx;
  sim.next_seq <- sim.next_seq + 1;
  Tm.incr_in sim.store m_scheduled;
  handle_of_slot sim s

let schedule_at sim time fn =
  if time < sim.clock then
    invalid_arg
      (Format.asprintf "Sim.schedule_at: %a is before now (%a)" Time.pp time
         Time.pp sim.clock);
  push sim no_label time fn

let schedule_after sim span fn =
  if span < 0 then
    invalid_arg
      (Printf.sprintf "Sim.schedule_after: span %dns is negative" span);
  schedule_at sim (sim.clock + span) fn

(* Periodic-timer churn (governor sampling, re-armed demand wakeups) cancels
   events constantly; reap the tombstones in bulk once they outnumber live
   events, so the queue tracks the live population instead of growing with
   churn. *)
let maybe_reap sim =
  if sim.dead > 64 && sim.dead * 2 > Heap.size sim.q then begin
    Tm.incr_in sim.store m_reap_passes;
    Tm.add_in sim.store m_reaped (float_of_int sim.dead);
    Heap.filter_in_place sim.q ~keep:sim.keep;
    sim.dead <- 0
  end

let cancel sim h =
  let s = deref sim h in
  if s.s_state = Pending then begin
    s.s_state <- Cancelled;
    Tm.incr_in sim.store m_cancelled;
    sim.dead <- sim.dead + 1;
    maybe_reap sim
  end

let cancelled sim h = (deref sim h).s_state = Cancelled

(* The pool index of the earliest live event, or -1 if none is left.
   Tombstones at the head are dropped and released on the way, through the
   same reap accounting as a cancel, so a run dominated by either {!run} or
   {!run_until} still reaps in bulk. *)
let rec live_top sim =
  let idx = Heap.top sim.q in
  if idx >= 0 && sim.slots.(idx).s_state = Cancelled then begin
    Heap.drop sim.q;
    sim.dead <- sim.dead - 1;
    release sim sim.slots.(idx);
    maybe_reap sim;
    live_top sim
  end
  else idx

(* Per-fire bookkeeping: the global fired counter, a dirty flag batching
   the queue-depth gauges (flushed on run exit and every 4096 fires), and
   (only while a trace is being recorded) a decimated queue-depth timeline
   sample so huge runs stay exportable. The decimation check is a plain
   int field — no counter read, no float round-trip. *)
let flush_gauges sim =
  if sim.gauges_dirty then begin
    sim.gauges_dirty <- false;
    Tm.set_in sim.store g_depth (float_of_int (Heap.size sim.q));
    Tm.set_max_in sim.store g_depth_max (float_of_int sim.depth_max)
  end

let note_fired sim =
  Tm.incr_in sim.store m_fired;
  sim.fired_n <- sim.fired_n + 1;
  let depth = Heap.size sim.q in
  if depth > sim.depth_max then sim.depth_max <- depth;
  sim.gauges_dirty <- true;
  if sim.fired_n land 4095 = 0 then begin
    flush_gauges sim;
    if Tt.recording_in sim.tracer then
      Tt.sample ~track:"engine.sim" ~name:"sim.queue_depth" sim.clock
        (float_of_int depth)
  end

(* Fire the head event [s]. The slot is released *before* the callback
   runs: the queue no longer references it, every outstanding handle is
   already stale (cancel-during-fire is a no-op by generation mismatch),
   and the callback may immediately reuse the slot for what it schedules.
   The fields the fire needs are read out first. *)
let fire_top sim s =
  Heap.drop sim.q;
  sim.clock <- s.s_time;
  let fn = s.s_fn in
  let lbl = s.s_label in
  s.s_state <- Fired;
  release sim s;
  note_fired sim;
  if lbl >= 0 then count_label sim.store lbl;
  fn ()

(* Fire every live event due at or before [limit], reading the head once
   per fire. *)
let rec fire_until sim limit =
  let idx = live_top sim in
  if idx >= 0 then begin
    let s = sim.slots.(idx) in
    if s.s_time <= limit then begin
      fire_top sim s;
      fire_until sim limit
    end
  end

let run_until sim limit =
  fire_until sim limit;
  flush_gauges sim;
  if limit > sim.clock then sim.clock <- limit

let run sim =
  fire_until sim max_int;
  flush_gauges sim

let pending sim = Heap.size sim.q - sim.dead
let queue_length sim = Heap.size sim.q

(* ------------------------------------------------------------------ *)
(* Grid timers                                                          *)

type timer_state = Idle | Armed | Stopped

(* Whether an occurrence is pending is read off its handle, not kept in a
   flag: [fire_top] stales the handle before the body runs, so the body
   sees the timer idle and may re-arm it, and no wrapper closure is built
   per arm. *)
type timer = {
  tm_sim : t;
  tm_epoch : Time.t; (* the grid is tm_epoch + k * tm_period, k >= 1 *)
  tm_period : Time.span;
  tm_label : label;
  mutable tm_next : handle; (* the latest occurrence scheduled *)
  mutable tm_stopped : bool;
}

let timer sim ?(label = no_label) period =
  if period <= 0 then invalid_arg "Sim.timer: period must be positive";
  {
    tm_sim = sim;
    tm_epoch = sim.clock;
    tm_period = period;
    tm_label = label;
    tm_next = none;
    tm_stopped = false;
  }

let timer_state tm =
  if tm.tm_stopped then Stopped
  else if (deref tm.tm_sim tm.tm_next).s_state = Pending then Armed
  else Idle

let arm tm body =
  match timer_state tm with
  | Idle ->
      let sim = tm.tm_sim in
      let k = ((sim.clock - tm.tm_epoch) / tm.tm_period) + 1 in
      tm.tm_next <- push sim tm.tm_label (tm.tm_epoch + (k * tm.tm_period)) body
  | Armed | Stopped -> ()

let stop_timer tm =
  tm.tm_stopped <- true;
  cancel tm.tm_sim tm.tm_next
