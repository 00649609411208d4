let sum xs = Array.fold_left ( +. ) 0.0 xs

let mean xs =
  let n = Array.length xs in
  if n = 0 then Float.nan else sum xs /. float_of_int n

let stddev xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let m = mean xs in
    let acc = Array.fold_left (fun a x -> a +. ((x -. m) ** 2.0)) 0.0 xs in
    sqrt (acc /. float_of_int (n - 1))
  end

let min xs = Array.fold_left Float.min Float.infinity xs
let max xs = Array.fold_left Float.max Float.neg_infinity xs

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then Float.nan
  else begin
    let sorted = Array.copy xs in
    Array.sort compare sorted;
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = Stdlib.min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

let median xs = percentile xs 50.0

type histogram = { lo : float; hi : float; counts : int array }

let histogram xs ~bins =
  if bins <= 0 then invalid_arg "Stats.histogram: bins must be positive";
  if Array.length xs = 0 then invalid_arg "Stats.histogram: empty input";
  let lo = min xs and hi = max xs in
  let counts = Array.make bins 0 in
  let width = (hi -. lo) /. float_of_int bins in
  Array.iter
    (fun x ->
      let i =
        if width = 0.0 then 0
        else Stdlib.min (bins - 1) (int_of_float ((x -. lo) /. width))
      in
      counts.(i) <- counts.(i) + 1)
    xs;
  { lo; hi; counts }
