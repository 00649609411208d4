(* Tests for DTW and the side-channel attacker. *)
open Psbox_sidechannel

let check_float e = Alcotest.(check (float e))
let check_bool = Alcotest.(check bool)

let test_dtw_identity () =
  let x = [| 1.0; 2.0; 3.0; 2.0; 1.0 |] in
  check_float 1e-12 "self distance zero" 0.0 (Dtw.distance x x)

let test_dtw_symmetry () =
  let x = [| 1.0; 2.0; 3.0 |] and y = [| 2.0; 2.0; 4.0; 1.0 |] in
  check_float 1e-12 "symmetric" (Dtw.distance x y) (Dtw.distance y x)

let test_dtw_shift_invariance () =
  (* DTW absorbs a time shift that pointwise distance cannot *)
  let pulse at = Array.init 30 (fun i -> if i >= at && i < at + 5 then 1.0 else 0.0) in
  let a = pulse 5 and b = pulse 12 in
  let pointwise =
    Array.fold_left ( +. ) 0.0 (Array.mapi (fun i x -> Float.abs (x -. b.(i))) a)
  in
  check_bool "dtw much smaller than pointwise" true
    (Dtw.distance a b < 0.25 *. pointwise)

let test_dtw_band_restricts () =
  let pulse at = Array.init 60 (fun i -> if i >= at && i < at + 5 then 1.0 else 0.0) in
  let a = pulse 5 and b = pulse 45 in
  check_bool "narrow band cannot absorb a big shift" true
    (Dtw.distance ~band:3 a b > Dtw.distance a b)

let test_dtw_empty () =
  check_bool "empty is infinite" true (Dtw.distance [||] [| 1.0 |] = Float.infinity)

let test_znormalize () =
  let z = Dtw.znormalize [| 2.0; 4.0; 6.0 |] in
  check_float 1e-9 "mean zero" 0.0 (Array.fold_left ( +. ) 0.0 z /. 3.0);
  let z2 = Dtw.znormalize [| 5.0; 5.0; 5.0 |] in
  check_float 1e-9 "constant maps to zeros" 0.0 z2.(0)

let test_downsample () =
  let d = Dtw.downsample [| 1.0; 3.0; 5.0; 7.0; 9.0 |] ~factor:2 in
  Alcotest.(check int) "length" 2 (Array.length d);
  check_float 1e-9 "means" 2.0 d.(0);
  check_float 1e-9 "means2" 6.0 d.(1)

let prop_dtw_nonneg =
  QCheck.Test.make ~name:"dtw distance is nonnegative" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 20) (float_range (-5.0) 5.0))
        (list_of_size Gen.(1 -- 20) (float_range (-5.0) 5.0)))
    (fun (a, b) ->
      Dtw.distance (Array.of_list a) (Array.of_list b) >= 0.0)

(* The textbook full-matrix dynamic program, the reference for the
   two-row, band-only [Dtw.distance]: every cell of the (n+1) x (m+1)
   matrix, infinity outside the band, [Float.min] for the minimum. *)
let reference_dtw ?band a b =
  let n = Array.length a and m = Array.length b in
  if n = 0 || m = 0 then Float.infinity
  else begin
    let w =
      match band with None -> max n m | Some w -> max w (abs (n - m))
    in
    let d = Array.make_matrix (n + 1) (m + 1) Float.infinity in
    d.(0).(0) <- 0.0;
    for i = 1 to n do
      for j = 1 to m do
        if abs (i - j) <= w then
          d.(i).(j) <-
            Float.abs (a.(i - 1) -. b.(j - 1))
            +. Float.min d.(i - 1).(j)
                 (Float.min d.(i).(j - 1) d.(i - 1).(j - 1))
      done
    done;
    d.(n).(m)
  end

(* Small integers make ties between the three predecessors common. *)
let dtw_case =
  let open QCheck.Gen in
  let value =
    oneof [ float_range (-100.0) 100.0; map float_of_int (int_range (-3) 3) ]
  in
  let series = array_size (int_range 0 60) value in
  triple series series (opt (int_range 0 70))

let prop_dtw_matches_full_matrix =
  QCheck.Test.make ~name:"dtw equals the full-matrix reference, bit for bit"
    ~count:500
    (QCheck.make
       ~print:(fun (a, b, band) ->
         Printf.sprintf "n=%d m=%d band=%s" (Array.length a) (Array.length b)
           (match band with None -> "none" | Some w -> string_of_int w))
       dtw_case)
    (fun (a, b, band) ->
      Int64.equal
        (Int64.bits_of_float (Dtw.distance ?band a b))
        (Int64.bits_of_float (reference_dtw ?band a b)))

let sine ~freq ~n =
  Array.init n (fun i -> sin (freq *. float_of_int i) +. 1.5)

let test_attack_classifies_distinct_signals () =
  let training =
    [ ("slow", sine ~freq:0.05 ~n:500); ("mid", sine ~freq:0.2 ~n:500);
      ("fast", sine ~freq:0.7 ~n:500) ]
  in
  let model = Attack.train training ~downsample:2 () in
  Alcotest.(check string) "slow" "slow" (Attack.classify model (sine ~freq:0.06 ~n:480));
  Alcotest.(check string) "mid" "mid" (Attack.classify model (sine ~freq:0.22 ~n:520));
  Alcotest.(check string) "fast" "fast" (Attack.classify model (sine ~freq:0.65 ~n:500));
  check_float 1e-9 "success on near-copies" 1.0
    (Attack.success_rate model
       [ ("slow", sine ~freq:0.05 ~n:510); ("fast", sine ~freq:0.72 ~n:490) ])

let suite =
  [
    ("dtw identity", `Quick, test_dtw_identity);
    ("dtw symmetry", `Quick, test_dtw_symmetry);
    ("dtw shift invariance", `Quick, test_dtw_shift_invariance);
    ("dtw band restricts warping", `Quick, test_dtw_band_restricts);
    ("dtw empty input", `Quick, test_dtw_empty);
    ("znormalize", `Quick, test_znormalize);
    ("downsample", `Quick, test_downsample);
    ("attack classifies distinct signals", `Quick, test_attack_classifies_distinct_signals);
    QCheck_alcotest.to_alcotest prop_dtw_nonneg;
    QCheck_alcotest.to_alcotest prop_dtw_matches_full_matrix;
  ]
