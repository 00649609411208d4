let znormalize xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let mean = Array.fold_left ( +. ) 0.0 xs /. float_of_int n in
    let var =
      Array.fold_left (fun a x -> a +. ((x -. mean) ** 2.0)) 0.0 xs
      /. float_of_int n
    in
    let sd = sqrt var in
    if sd < 1e-12 then Array.map (fun x -> x -. mean) xs
    else Array.map (fun x -> (x -. mean) /. sd) xs
  end

let downsample xs ~factor =
  if factor <= 0 then invalid_arg "Dtw.downsample: factor must be positive";
  let n = Array.length xs / factor in
  Array.init n (fun i ->
      let acc = ref 0.0 in
      for k = 0 to factor - 1 do
        acc := !acc +. xs.((i * factor) + k)
      done;
      !acc /. float_of_int factor)

(* Two row buffers, swapped after every row. Row [i] writes the band
   [jlo, jhi] and reads the previous row on [jlo - 1, jhi] and its own
   cell [jlo - 1]; the band only moves right, so the next row reads this
   one on [jlo - 1, jhi + 1] at most. Resetting those two cells to
   infinity is all the clearing a row needs: every other cell it reads it
   has just written. The three-way minimum is written out, not
   [Float.min], so no cell boxes a float: with finite inputs every cost
   is non-negative and never -0, and [<] picks the same bits. *)
let distance ?band a b =
  let n = Array.length a and m = Array.length b in
  if n = 0 || m = 0 then Float.infinity
  else begin
    (* band width rescaled for unequal lengths, as in Sakoe-Chiba *)
    let w =
      match band with
      | None -> max n m
      | Some w -> max w (abs (n - m))
    in
    let prev = ref (Array.make (m + 1) Float.infinity) in
    let curr = ref (Array.make (m + 1) Float.infinity) in
    !prev.(0) <- 0.0;
    for i = 1 to n do
      let p = !prev and c = !curr in
      let jlo = max 1 (i - w) and jhi = min m (i + w) in
      c.(jlo - 1) <- Float.infinity;
      if jhi < m then c.(jhi + 1) <- Float.infinity;
      let ai = a.(i - 1) in
      for j = jlo to jhi do
        let cost = Float.abs (ai -. b.(j - 1)) in
        let x = p.(j) and y = c.(j - 1) and z = p.(j - 1) in
        let yz = if y < z then y else z in
        c.(j) <- cost +. if x < yz then x else yz
      done;
      prev := c;
      curr := p
    done;
    !prev.(m)
  end
