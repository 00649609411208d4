(* The host's speed, measured beside the workload.

   On a shared host, other tenants slow everything down for seconds to
   minutes at a time, by up to 80 %, the fastest op included, so no
   statistic of raw op times repeats from one run to the next. The
   workloads therefore time a fixed reference job — a small discrete-event
   loop written here, using no code of the repository, so no change to the
   program moves it — between their ops, and rescale op times by how slow
   the reference ran around them:

     scaled = op seconds * nominal / (reference seconds around the op)

   [nominal] is a constant, so a scaled time reads in seconds of a host on
   which the reference job takes [nominal] seconds, and a change that makes
   an op 10 % faster makes its scaled time 10 % lower.

   The job allocates nothing: its time must not depend on the heap of the
   process it runs in (a soak process holds hundreds of megabytes, and any
   allocation would pay for collecting them). *)

let now = Spans.now

(* ---- the reference job ------------------------------------------------ *)

let events = 2048
let slots = 4096
let steps = 200_000

(* Seconds the reference job takes on the host scaled times are expressed
   for: about what it takes on a quiet 2-CPU Xeon container. *)
let nominal = 0.03

type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(* One domain's working memory, allocated once and outside the OCaml
   heap: a binary min-heap of events (time, id), a table of floats indexed
   by a hash of the id, an accumulator and a pseudo-random stream. Every
   array sits between 8 KiB of padding, and the record has no mutable
   field: the jobs of two domains write their state on every step, and
   two states sharing a cache line would make each job as slow as both. *)
type state = {
  at : floats;
  id : ints;
  table : floats;
  acc : floats;
  rng : ints;
}

let pad = 1024

let padded kind n =
  let a = Bigarray.Array1.create kind Bigarray.c_layout (n + (2 * pad)) in
  Bigarray.Array1.sub a pad n

let state () =
  {
    at = padded Bigarray.float64 events;
    id = padded Bigarray.int events;
    table = padded Bigarray.float64 slots;
    acc = padded Bigarray.float64 1;
    rng = padded Bigarray.int 1;
  }

(* An int: a function returning a float would allocate its result. *)
let rand s =
  s.rng.{0} <- ((s.rng.{0} * 1103515245) + 12345) land 0x3fffffff;
  s.rng.{0}

let swap s i j =
  let a = s.at.{i} in
  s.at.{i} <- s.at.{j};
  s.at.{j} <- a;
  let d = s.id.{i} in
  s.id.{i} <- s.id.{j};
  s.id.{j} <- d

let rec up s i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if s.at.{p} > s.at.{i} then begin
      swap s i p;
      up s p
    end
  end

let rec down s i =
  let l = (2 * i) + 1 in
  let r = l + 1 in
  let m = if l < events && s.at.{l} < s.at.{i} then l else i in
  let m = if r < events && s.at.{r} < s.at.{m} then r else m in
  if m <> i then begin
    swap s i m;
    down s m
  end

(* [steps] times: take the earliest event, fold its time into the table
   slot of its id, and reschedule it an exponential delay later. Returns
   its own duration. *)
let job s =
  let t0 = now () in
  s.rng.{0} <- 12345;
  for i = 0 to slots - 1 do
    s.table.{i} <- 0.0
  done;
  for i = 0 to events - 1 do
    s.at.{i} <- float_of_int (rand s) /. 1073741824.0;
    s.id.{i} <- i;
    up s i
  done;
  s.acc.{0} <- 0.0;
  for _ = 1 to steps do
    let t = s.at.{0} and k = s.id.{0} in
    let slot = (k * 7919) land (slots - 1) in
    let v = s.table.{slot} +. t in
    s.table.{slot} <- v;
    s.acc.{0} <- s.acc.{0} +. sqrt v;
    s.at.{0} <- t -. log ((float_of_int (rand s) /. 1073741824.0) +. 1e-9);
    s.id.{0} <- k + 1;
    down s 0
  done;
  now () -. t0

(* ---- samples ---------------------------------------------------------- *)

type sample = { t0 : float; t1 : float; secs : float }

let log : sample list ref = ref []
let states = ref [||]

(* Run the reference job on [domains] domains at once — as many as the
   ops that follow use — and record the time one job takes when the
   domains share the work: the harmonic mean of their times, because a
   fleet's domains steal devices from each other, so an op finishes at
   the domains' combined speed. One domain may be twice as slow as the
   other: the host slows each CPU on its own. The jobs start together:
   two CPUs of the host slow each other down, so a job that started while
   the other domain was still being spawned would run faster than one
   beside a busy CPU, as an op's domains always are. *)
let sample ?(domains = 1) () =
  if Array.length !states < domains then
    states := Array.init domains (fun _ -> state ());
  let states = !states in
  let t0 = now () in
  let ready = Atomic.make 0 and go = Atomic.make false in
  let others =
    List.init (domains - 1) (fun i ->
        Domain.spawn (fun () ->
            Atomic.incr ready;
            while not (Atomic.get go) do
              Domain.cpu_relax ()
            done;
            job states.(i + 1)))
  in
  while Atomic.get ready < domains - 1 do
    Domain.cpu_relax ()
  done;
  Atomic.set go true;
  let mine = job states.(0) in
  let times = mine :: List.map Domain.join others in
  let t1 = now () in
  let speed = List.fold_left (fun acc t -> acc +. (1.0 /. t)) 0.0 times in
  log := { t0; t1; secs = float_of_int domains /. speed } :: !log

(* [sample] unless one ended less than [every] seconds ago. *)
let sample_every ?domains every =
  match !log with
  | s :: _ when now () -. s.t1 < every -> ()
  | _ -> sample ?domains ()

(* The reference time around [t0, t1]: the mean of the last sample that
   ended by [t0] and the first that started at or after [t1] (either one
   alone when the other is missing). *)
let around t0 t1 =
  let before = List.find_opt (fun s -> s.t1 <= t0) !log (* newest first *) in
  let after =
    List.fold_left (fun acc s -> if s.t0 >= t1 then Some s else acc) None !log
  in
  match (before, after) with
  | Some b, Some a -> (b.secs +. a.secs) /. 2.0
  | Some s, None | None, Some s -> s.secs
  | None, None -> nan
