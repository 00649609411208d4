type t = {
  mutable times : int array;
  mutable values : float array;
  (* cum.(i) is the integral of the step function from times.(0) to
     times.(i), in value-seconds. Invariant:
       cum.(0) = 0
       cum.(i) = cum.(i-1) + values.(i-1) * (times.(i) - times.(i-1))
     so any window integral is two O(log n) lookups and O(1) arithmetic. *)
  mutable cum : float array;
  mutable len : int;
  retention : Time.span option;
  (* energy of breakpoints discarded by compaction, so [energy_at] stays
     origin-stable across compactions *)
  mutable dropped_j : float;
  mutable dropped : int;
}

let create ?(initial = 0.0) ?retention () =
  (match retention with
  | Some r when r <= 0 -> invalid_arg "Timeline.create: retention must be positive"
  | _ -> ());
  {
    times = Array.make 16 0;
    values = Array.make 16 initial;
    cum = Array.make 16 0.0;
    len = 1;
    retention;
    dropped_j = 0.0;
    dropped = 0;
  }

let ensure_capacity tl =
  if tl.len = Array.length tl.times then begin
    let ncap = tl.len * 2 in
    let times = Array.make ncap 0
    and values = Array.make ncap 0.0
    and cum = Array.make ncap 0.0 in
    Array.blit tl.times 0 times 0 tl.len;
    Array.blit tl.values 0 values 0 tl.len;
    Array.blit tl.cum 0 cum 0 tl.len;
    tl.times <- times;
    tl.values <- values;
    tl.cum <- cum
  end

let retention tl = tl.retention
let last_time tl = tl.times.(tl.len - 1)
let length tl = tl.len
let dropped tl = tl.dropped

(* Index of the last breakpoint at or before [t]. *)
let index_at tl t =
  if t >= last_time tl then tl.len - 1
  else begin
    let lo = ref 0 and hi = ref (tl.len - 1) in
    (* invariant: times.(lo) <= t < times.(hi) *)
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if tl.times.(mid) <= t then lo := mid else hi := mid
    done;
    !lo
  end

let compact tl ~before =
  let keep_from = if before >= last_time tl then tl.len - 1 else index_at tl before in
  if keep_from = 0 then 0
  else begin
    let n = tl.len - keep_from in
    tl.dropped_j <- tl.dropped_j +. tl.cum.(keep_from);
    let base = tl.cum.(keep_from) in
    Array.blit tl.times keep_from tl.times 0 n;
    Array.blit tl.values keep_from tl.values 0 n;
    for i = 0 to n - 1 do
      tl.cum.(i) <- tl.cum.(keep_from + i) -. base
    done;
    tl.len <- n;
    tl.dropped <- tl.dropped + keep_from;
    keep_from
  end

let set tl t v =
  let last = last_time tl in
  if t < last then
    invalid_arg
      (Format.asprintf "Timeline.set: %a is before last breakpoint %a" Time.pp
         t Time.pp last);
  if t = last then tl.values.(tl.len - 1) <- v
  else if tl.values.(tl.len - 1) <> v then begin
    ensure_capacity tl;
    tl.times.(tl.len) <- t;
    tl.values.(tl.len) <- v;
    tl.cum.(tl.len) <-
      tl.cum.(tl.len - 1)
      +. (tl.values.(tl.len - 1) *. Time.to_sec_f (t - last));
    tl.len <- tl.len + 1;
    match tl.retention with
    | Some r when t - tl.times.(0) > 2 * r -> ignore (compact tl ~before:(t - r))
    | _ -> ()
  end

let value_at tl t = if t < tl.times.(0) then tl.values.(0) else tl.values.(index_at tl t)

let energy_at tl t =
  let i = if t < tl.times.(0) then 0 else index_at tl t in
  tl.dropped_j +. tl.cum.(i) +. (tl.values.(i) *. Time.to_sec_f (t - tl.times.(i)))

let integrate tl t0 t1 =
  if t1 < t0 then invalid_arg "Timeline.integrate: reversed interval";
  if t1 = t0 then 0.0 else energy_at tl t1 -. energy_at tl t0

let mean tl t0 t1 =
  if t1 <= t0 then value_at tl t0
  else integrate tl t0 t1 /. Time.to_sec_f (t1 - t0)

let samples tl ~period ~from ~until =
  if period <= 0 then invalid_arg "Timeline.samples: period must be positive";
  let n = ((until - from) / period) + 1 in
  let n = max n 0 in
  Array.init n (fun k ->
      let t = from + (k * period) in
      (t, value_at tl t))

let iter_samples tl ~period ~from ~until ~f =
  if period <= 0 then invalid_arg "Timeline.iter_samples: period must be positive";
  (* incremental index walk: samples arrive in time order, so each one only
     ever moves the breakpoint index forward — no per-sample binary search *)
  let i = ref (if from < tl.times.(0) then 0 else index_at tl from) in
  let t = ref from in
  while !t <= until do
    while !i + 1 < tl.len && tl.times.(!i + 1) <= !t do
      incr i
    done;
    f !t tl.values.(!i);
    t := !t + period
  done

let fold_intervals tl ~from ~until ~init ~f =
  let acc = ref init in
  let i = ref (index_at tl (max from tl.times.(0))) in
  let cursor = ref from in
  while !cursor < until do
    let seg_end = if !i + 1 < tl.len then min tl.times.(!i + 1) until else until in
    let seg_end = max seg_end !cursor in
    if seg_end > !cursor then acc := f !acc !cursor seg_end tl.values.(!i);
    cursor := seg_end;
    if !i + 1 < tl.len && !cursor >= tl.times.(!i + 1) then incr i
  done;
  !acc

let map_intervals tl ~from ~until ~f =
  List.rev
    (fold_intervals tl ~from ~until ~init:[] ~f:(fun acc s e v ->
         f s e v :: acc))
