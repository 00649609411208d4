type t = { intercept : float; coeffs : float array }

let intercept m = m.intercept
let coeffs m = m.coeffs

let predict m utils =
  if Array.length utils <> Array.length m.coeffs then
    invalid_arg "Model_meter.predict: dimension mismatch";
  let acc = ref m.intercept in
  Array.iteri (fun i u -> acc := !acc +. (m.coeffs.(i) *. u)) utils;
  !acc

(* Solve the square system [a] x = [b] by Gaussian elimination with partial
   pivoting; mutates its arguments. *)
let solve ~floor ~singular a b =
  let n = Array.length b in
  for col = 0 to n - 1 do
    let pivot = ref col in
    for row = col + 1 to n - 1 do
      if Float.abs a.(row).(col) > Float.abs a.(!pivot).(col) then pivot := row
    done;
    if Float.abs a.(!pivot).(col) < floor then invalid_arg singular;
    if !pivot <> col then begin
      let tmp = a.(col) in
      a.(col) <- a.(!pivot);
      a.(!pivot) <- tmp;
      let tmp = b.(col) in
      b.(col) <- b.(!pivot);
      b.(!pivot) <- tmp
    end;
    for row = col + 1 to n - 1 do
      let f = a.(row).(col) /. a.(col).(col) in
      for k = col to n - 1 do
        a.(row).(k) <- a.(row).(k) -. (f *. a.(col).(k))
      done;
      b.(row) <- b.(row) -. (f *. b.(col))
    done
  done;
  let x = Array.make n 0.0 in
  for row = n - 1 downto 0 do
    let acc = ref b.(row) in
    for k = row + 1 to n - 1 do
      acc := !acc -. (a.(row).(k) *. x.(k))
    done;
    x.(row) <- !acc /. a.(row).(row)
  done;
  x

let fit observations =
  match observations with
  | [] -> invalid_arg "Model_meter.fit: no observations"
  | (u0, _) :: _ ->
      let dim = Array.length u0 in
      if List.length observations < dim + 1 then
        invalid_arg "Model_meter.fit: not enough observations";
      List.iter
        (fun (u, _) ->
          if Array.length u <> dim then
            invalid_arg "Model_meter.fit: inconsistent dimensions")
        observations;
      (* Augment with a constant regressor for the intercept:
         normal equations (X'X) beta = X'y with X rows [1; u...]. *)
      let d = dim + 1 in
      let xtx = Array.make_matrix d d 0.0 in
      let xty = Array.make d 0.0 in
      List.iter
        (fun (u, y) ->
          let row = Array.make d 1.0 in
          Array.blit u 0 row 1 dim;
          for i = 0 to d - 1 do
            xty.(i) <- xty.(i) +. (row.(i) *. y);
            for j = 0 to d - 1 do
              xtx.(i).(j) <- xtx.(i).(j) +. (row.(i) *. row.(j))
            done
          done)
        observations;
      let beta =
        solve ~floor:1e-12
          ~singular:"Model_meter.fit: singular system (collinear inputs)" xtx xty
      in
      { intercept = beta.(0); coeffs = Array.sub beta 1 dim }

let rmse m observations =
  match observations with
  | [] -> 0.0
  | _ ->
      let acc =
        List.fold_left
          (fun acc (u, y) ->
            let e = predict m u -. y in
            acc +. (e *. e))
          0.0 observations
      in
      sqrt (acc /. float_of_int (List.length observations))
