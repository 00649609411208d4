(* Entry [i] is (time.(i), seq.(i), data.(i)). Sifts move a hole and write
   each entry once, at its final place; every array holds immediate ints,
   so no store pays a write barrier. The key comparison is written out at
   each use: a comparator from another module would cost a call per
   comparison under -opaque. *)
type t = {
  mutable time : int array;
  mutable seq : int array;
  mutable data : int array;
  mutable len : int;
}

let create () = { time = [||]; seq = [||]; data = [||]; len = 0 }
let size h = h.len

let grow h =
  let cap = Array.length h.time in
  let ncap = if cap = 0 then 16 else 2 * cap in
  let time = Array.make ncap 0 and seq = Array.make ncap 0
  and data = Array.make ncap 0 in
  Array.blit h.time 0 time 0 h.len;
  Array.blit h.seq 0 seq 0 h.len;
  Array.blit h.data 0 data 0 h.len;
  h.time <- time;
  h.seq <- seq;
  h.data <- data

(* Fill the hole at [i] with (t, s, d), first moving every ancestor that
   orders after it down one level. *)
let rec sift_up (time : int array) (seq : int array) (data : int array) i
    (t : int) (s : int) (d : int) =
  let p = (i - 1) / 2 in
  if i > 0 && (t < time.(p) || (t = time.(p) && s < seq.(p))) then begin
    time.(i) <- time.(p);
    seq.(i) <- seq.(p);
    data.(i) <- data.(p);
    sift_up time seq data p t s d
  end
  else begin
    time.(i) <- t;
    seq.(i) <- s;
    data.(i) <- d
  end

(* Fill the hole at [i] of a heap of [n] entries with (t, s, d), first
   moving the smaller child up while it orders before the entry. *)
let rec sift_down (time : int array) (seq : int array) (data : int array) n
    i (t : int) (s : int) (d : int) =
  let l = (2 * i) + 1 in
  let c =
    if l + 1 < n
       && (time.(l + 1) < time.(l)
          || (time.(l + 1) = time.(l) && seq.(l + 1) < seq.(l)))
    then l + 1
    else l
  in
  if c < n && (time.(c) < t || (time.(c) = t && seq.(c) < s)) then begin
    time.(i) <- time.(c);
    seq.(i) <- seq.(c);
    data.(i) <- data.(c);
    sift_down time seq data n c t s d
  end
  else begin
    time.(i) <- t;
    seq.(i) <- s;
    data.(i) <- d
  end

let push h ~time ~seq d =
  if h.len = Array.length h.time then grow h;
  let i = h.len in
  h.len <- i + 1;
  sift_up h.time h.seq h.data i time seq d

let top h = if h.len = 0 then -1 else h.data.(0)

let drop h =
  let n = h.len - 1 in
  h.len <- n;
  if n > 0 then
    sift_down h.time h.seq h.data n 0 h.time.(n) h.seq.(n) h.data.(n)

let filter_in_place h ~keep =
  let time = h.time and seq = h.seq and data = h.data in
  let n = ref 0 in
  for i = 0 to h.len - 1 do
    if keep data.(i) then begin
      let j = !n in
      time.(j) <- time.(i);
      seq.(j) <- seq.(i);
      data.(j) <- data.(i);
      n := j + 1
    end
  done;
  let n = !n in
  h.len <- n;
  (* bottom-up heapify: O(n) *)
  for i = (n / 2) - 1 downto 0 do
    sift_down time seq data n i time.(i) seq.(i) data.(i)
  done
