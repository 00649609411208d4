type t = int
type span = int

let zero = 0
let us n = n * 1_000
let ms n = n * 1_000_000
let sec n = n * 1_000_000_000
let of_sec_f s = int_of_float (Float.round (s *. 1e9))
let to_sec_f t = float_of_int t /. 1e9
let to_us_f t = float_of_int t /. 1e3
let to_ms_f t = float_of_int t /. 1e6

let pp fmt t =
  if t >= 1_000_000_000 then Format.fprintf fmt "%.3fs" (to_sec_f t)
  else if t >= 1_000_000 then Format.fprintf fmt "%.3fms" (to_ms_f t)
  else if t >= 1_000 then Format.fprintf fmt "%.3fus" (to_us_f t)
  else Format.fprintf fmt "%dns" t
