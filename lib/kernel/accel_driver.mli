(** Accelerator driver: the GPU/DSP command queue over {!Temporal_sched}.

    The driver owns the CPU side of a GPU/DSP command queue. Its
    {!Temporal_sched} (reached with {!sched}) dispatches up to a
    configurable window of commands into the device by fair queueing
    (least virtual device runtime first — a CFS-in-spirit scheduler, as
    built for both test GPUs in §5) and runs the psbox temporal balloons.

    What is specific to an accelerator lives here: command submission, the
    SGX-style [Lock_requests] stall, per-app completion counts, and the
    billing of balloons. With [confine_cost], the sandboxed app pays for
    the device's idle capacity while others drain and for the whole device
    while it is served, and its in-serve credit grows with the serve window
    when the driver decides whether to yield. *)

type buffering = Lock_requests | Per_process_queues
(** Where the paper's two GPU stacks buffer during balloons: SGX544 buffers
    app locking requests in syscall context; Adreno buffers per-process
    command queues. Behaviourally equivalent here; recorded for latency
    attribution. *)

type t

val create :
  Psbox_engine.Sim.t ->
  Psbox_hw.Accel.t ->
  ?buffering:buffering ->
  ?window:int ->
  ?confine_cost:bool ->
  unit ->
  t
(** [window] is the maximum number of commands outstanding in the device
    (default 2 — enough to create the overlap of Figure 3(b)).
    [confine_cost] (default true) enables the paper's billing of drain
    losses and serve windows to the sandboxed app; disabling it is the
    ablation that lets a sandboxed app hurt its neighbours. Credit is in
    device unit-seconds, and so are rate gates ([units_per_s]). *)

val device : t -> Psbox_hw.Accel.t

val sched : t -> Psbox_hw.Accel.command Temporal_sched.t
(** The driver's scheduler: balloons, rate gates, the share bus, credits
    and the dispatch and completion histories. *)

val submit :
  t ->
  ?on_accepted:(unit -> unit) ->
  app:int ->
  Psbox_hw.Accel.command ->
  on_complete:(Psbox_hw.Accel.command -> unit) ->
  unit
(** Queue a command on behalf of an app; [on_complete] fires when the device
    reports completion. [on_accepted] fires when the driver accepts the
    submission: immediately under [Per_process_queues]; deferred until the
    balloon's flush-others phase under [Lock_requests], where a foreign
    submission stalls in syscall context while a balloon holds the queue
    (the SGX/Adreno structural difference of §5). *)

val submission_blocks : t -> app:int -> bool
(** Whether a submission from [app] would stall right now. *)

val completed : t -> app:int -> int
(** Commands completed so far, per app (throughput accounting). *)
