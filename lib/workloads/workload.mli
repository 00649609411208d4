(** Workload programs.

    Benchmark apps are written as {e scripts}: generators that yield batches
    of high-level operations (compute bursts, accelerator command batches,
    packet sends, sleeps). {!spawn} compiles a script into a kernel task
    program, wiring accelerator completions and packet-sent interrupts to
    task wakeups. *)

type accel_spec = {
  kind : string;
  work_s : float;  (** device-seconds at the highest OPP *)
  units : int;
  intensity : float;
}

val spec : ?units:int -> ?intensity:float -> kind:string -> work_s:float -> unit -> accel_spec

type op =
  | Compute of Psbox_engine.Time.span  (** CPU burst *)
  | Sleep of Psbox_engine.Time.span
  | Gpu_batch of accel_spec list
      (** submit all commands, block until every one completes *)
  | Dsp_batch of accel_spec list
  | Gpu_async of accel_spec
      (** submit one command and continue as soon as the driver {e accepts}
          it (fire-and-forget). Under the SGX-style [Lock_requests] driver,
          acceptance stalls while a foreign balloon holds the queue — the
          submitting task blocks in "syscall context" until flush-others. *)
  | Dsp_async of accel_spec
  | Send of { socket : int; bytes : int }  (** blocking send *)
  | Send_async of { socket : int; bytes : int }
  | Request of { socket : int; tx_bytes : int; rx_bytes : int; rtt : Psbox_engine.Time.span }
      (** send a request, then block until the response (delivered as RX
          frames after [rtt]) fully arrives *)
  | Count of string * float  (** bump an app throughput counter *)
  | Effect of (unit -> unit)  (** arbitrary synchronous effect *)

type script = unit -> op list option
(** Yield the next batch of operations; [None] exits the task. *)

val forever : (unit -> op list) -> script
(** A script that never exits. *)

val repeat : int -> (int -> op list) -> script
(** [repeat n f] yields [f 0 .. f (n-1)] then exits. *)

val spawn :
  Psbox_kernel.System.t ->
  app:Psbox_kernel.System.app ->
  name:string ->
  ?core:int ->
  ?weight:float ->
  script ->
  Psbox_kernel.Task.t
(** Compile and admit a task running the script. *)

val app_alive : Psbox_kernel.System.t -> Psbox_kernel.System.app -> bool
(** Whether the app still has non-exited tasks. *)

val run_until_idle :
  Psbox_kernel.System.t ->
  apps:Psbox_kernel.System.app list ->
  timeout:Psbox_engine.Time.span ->
  unit
(** Advance the simulation until every listed app's tasks have exited, or
    the timeout elapses, polling at 1 ms. *)
