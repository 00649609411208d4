(** Dynamic time warping over power traces.

    The similarity measure the paper's attacker uses (§2.5) to match an
    observed GPU power trace against labelled training traces. Classic
    O(n*m) dynamic program with an optional Sakoe-Chiba band and z-score
    normalization. *)

val distance : ?band:int -> float array -> float array -> float
(** [distance ?band a b] is the DTW alignment cost with absolute-difference
    local cost. [band] constrains |i - j| (after rescaling for unequal
    lengths: a band narrower than [|n - m|] widens to it); omitted =
    unconstrained. Returns [infinity] when the band admits no path;
    [infinity] if either input is empty.

    Two row buffers of [m + 1] cells are swapped from row to row, and a
    row touches only its band plus the cell on each side of it, so a call
    costs O(n * band) time and allocates two rows. For finite inputs the
    result has the bits of the textbook full-matrix program with
    [Float.min] (a qcheck property in [test/test_sidechannel.ml]). *)

val znormalize : float array -> float array
(** Subtract the mean and divide by the standard deviation (left unscaled
    when the deviation is ~0). *)

val downsample : float array -> factor:int -> float array
(** Mean-pool by [factor]; the usual preprocessing before DTW on long
    100 kHz traces. @raise Invalid_argument if [factor <= 0]. *)
