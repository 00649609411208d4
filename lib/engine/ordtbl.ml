type t = {
  mutable keys : int array; (* iteration order, [0 .. len-1] live *)
  mutable len : int;
  mutable pos : int array; (* key -> index in [keys], or -1 *)
  mutable hash : int array; (* key -> Hashtbl.hash key, or -1 if not yet *)
  mutable mask : int; (* bucket count - 1 *)
}

let create () =
  { keys = Array.make 8 0; len = 0; pos = [||]; hash = [||]; mask = 15 }

let length t = t.len
let key t i = if i < t.len then t.keys.(i) else invalid_arg "Ordtbl.key"
let mem t k = k >= 0 && k < Array.length t.pos && t.pos.(k) >= 0
let bucket t k = t.hash.(k) land t.mask

let grown a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Re-index the keys from position [i] on. *)
let renumber t i =
  for j = i to t.len - 1 do
    t.pos.(t.keys.(j)) <- j
  done

(* Double the bucket count. Keys that share a new bucket shared an old one,
   where they were already newest first; a stable sort by the new bucket
   therefore gives the order a resized [Hashtbl] has (its resize keeps
   each bucket's order). *)
let resize t =
  t.mask <- (2 * t.mask) + 1;
  for i = 1 to t.len - 1 do
    let k = t.keys.(i) in
    let b = bucket t k in
    let j = ref (i - 1) in
    while !j >= 0 && bucket t t.keys.(!j) > b do
      t.keys.(!j + 1) <- t.keys.(!j);
      decr j
    done;
    t.keys.(!j + 1) <- k
  done;
  renumber t 0

let add t k =
  if k < 0 then
    invalid_arg (Printf.sprintf "Ordtbl.add: key %d is negative" k);
  if not (mem t k) then begin
    if k >= Array.length t.pos then begin
      let n = max (2 * Array.length t.pos) (k + 1) in
      t.pos <- grown t.pos n (-1);
      t.hash <- grown t.hash n (-1)
    end;
    if t.hash.(k) < 0 then t.hash.(k) <- Hashtbl.hash k;
    if t.len = Array.length t.keys then t.keys <- grown t.keys (2 * t.len) 0;
    (* the keys are sorted by bucket: go in front of the key's bucket *)
    let b = bucket t k in
    let i = ref 0 in
    while !i < t.len && bucket t t.keys.(!i) < b do
      incr i
    done;
    Array.blit t.keys !i t.keys (!i + 1) (t.len - !i);
    t.keys.(!i) <- k;
    t.len <- t.len + 1;
    renumber t !i;
    if t.len > 2 * (t.mask + 1) then resize t
  end

let remove t k =
  if mem t k then begin
    let i = t.pos.(k) in
    Array.blit t.keys (i + 1) t.keys i (t.len - i - 1);
    t.len <- t.len - 1;
    t.pos.(k) <- -1;
    renumber t i
  end
