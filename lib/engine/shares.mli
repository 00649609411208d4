(** The apps' usage shares of one device, readable on a hot path.

    An app-indexed array of shares whose holders are also copied, in
    ascending app order, into two arrays and a running sum on every
    change. A reader that settles energy on every power transition walks
    the arrays: it allocates nothing, and it sees the shares in app order,
    with the sum a fold from 0 in that order gives. A change hashes
    nothing and allocates nothing once the arrays have grown. The joule
    audit credits the shared-rail parts in descending app order, and its
    counter sums depend on that order; the goldens do not pin it, so the
    [Shares] property of the engine tests is its only guard. *)

type total = { mutable sum : float }
(** Float-only, so storing the sum does not box it. *)

type t = private {
  mutable by_app : float array;  (** app -> share, 0 if it holds none *)
  mutable len : int;  (** holders copied *)
  mutable apps : int array;  (** [apps.(i)], [i < len]: ascending *)
  mutable shares : float array;  (** the share of [apps.(i)] *)
  total : total;  (** the shares summed from 0 in app order on every change *)
}

val create : unit -> t

val set : t -> app:int -> float -> unit
(** [set t ~app share] records [app]'s share; a share of 0 or less (or
    NaN) removes the app.
    @raise Invalid_argument if [share > 0] and [app] is negative. *)
