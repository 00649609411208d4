(* Entries live in fixed-size chunks, small enough to be allocated on the
   minor heap, linked from the oldest chunk to the newest. Growing links a
   chunk and copies nothing; a chunk emptied at the head is kept as the
   next one to link, so a window at its working size allocates nothing. *)
let chunk_size = 64

type 'a chunk = {
  stamps : Time.t array;
  items : 'a array;
  mutable next : 'a chunk; (* itself at the newest chunk *)
}

type 'a t = {
  nil : 'a chunk; (* capacity 0: the chunk of a fresh ring, and "no spare" *)
  mutable first : 'a chunk; (* holds the oldest entry *)
  mutable first_idx : int; (* its index there *)
  mutable last : 'a chunk; (* holds the newest entry *)
  mutable last_len : int; (* entries written to [last] *)
  mutable len : int;
  mutable spare : 'a chunk;
}

let create () =
  let rec nil = { stamps = [||]; items = [||]; next = nil } in
  { nil; first = nil; first_idx = 0; last = nil; last_len = 0; len = 0; spare = nil }

let length r = r.len

(* Link a fresh chunk after [last]; [filler] initialises a new one's items. *)
let link r filler =
  let c =
    if r.spare != r.nil then begin
      let c = r.spare in
      r.spare <- r.nil;
      c
    end
    else begin
      let stamps = Array.make chunk_size 0 and items = Array.make chunk_size filler in
      let rec c = { stamps; items; next = c } in
      c
    end
  in
  if r.len = 0 then begin
    r.first <- c;
    r.first_idx <- 0
  end
  else r.last.next <- c;
  r.last <- c;
  r.last_len <- 0

let push r stamp v =
  if r.len = 0 then begin
    (* empty: start over at the front of the current chunk *)
    r.first <- r.last;
    r.first_idx <- 0;
    r.last_len <- 0
  end;
  if r.last_len = Array.length r.last.stamps then link r v;
  r.last.stamps.(r.last_len) <- stamp;
  r.last.items.(r.last_len) <- v;
  r.last_len <- r.last_len + 1;
  r.len <- r.len + 1

let check_nonempty r name = if r.len = 0 then invalid_arg ("Ring." ^ name ^ ": empty")

let oldest_stamp r =
  check_nonempty r "oldest_stamp";
  r.first.stamps.(r.first_idx)

let oldest r =
  check_nonempty r "oldest";
  r.first.items.(r.first_idx)

let drop_oldest r =
  check_nonempty r "drop_oldest";
  let c = r.first in
  (* the newest entry, kept anyway, fills the slot so the dropped one can
     be collected *)
  c.items.(r.first_idx) <- r.last.items.(r.last_len - 1);
  r.first_idx <- r.first_idx + 1;
  r.len <- r.len - 1;
  if r.first_idx = chunk_size && c != r.last then begin
    r.first <- c.next;
    r.first_idx <- 0;
    c.next <- c;
    r.spare <- c
  end

let iter r f =
  let c = ref r.first and i = ref r.first_idx in
  for _ = 1 to r.len do
    if !i = chunk_size then begin
      c := !c.next;
      i := 0
    end;
    f !c.stamps.(!i) !c.items.(!i);
    incr i
  done

let fold_back f r init =
  if r.len = 0 then init
  else begin
    let rec newest_first c acc =
      if c == r.last then c :: acc else newest_first c.next (c :: acc)
    in
    List.fold_left
      (fun acc c ->
        let lo = if c == r.first then r.first_idx else 0
        and hi = if c == r.last then r.last_len else chunk_size in
        let acc = ref acc in
        for i = hi - 1 downto lo do
          acc := f c.stamps.(i) c.items.(i) !acc
        done;
        !acc)
      init
      (newest_first r.first [])
  end
