(** The apps' usage shares of one device, readable on a hot path.

    A table from app to share whose entries are also copied, in the
    table's iteration order, into two arrays and a running sum on every
    change. A reader that settles energy on every power transition walks
    the arrays: it allocates nothing, and it sees the shares in exactly
    the order, and with exactly the sum, that folding the table would
    give.

    The table is an {!Ordtbl} of app ids beside an app-indexed array of
    shares, so a change hashes nothing and allocates nothing once the
    arrays have grown. Its order is the one the [Hashtbl.create 8] it
    replaced iterated in; the joule audit credits the shared-rail parts in
    reverse of that order, and its counter sums depend on it. *)

type total = { mutable sum : float }
(** Float-only, so storing the sum does not box it. *)

type t = private {
  order : Ordtbl.t;  (** the apps with a share > 0, in table order *)
  mutable by_app : float array;  (** app -> share, for apps in [order] *)
  mutable len : int;  (** entries copied *)
  mutable apps : int array;  (** [apps.(i)], [i < len]: the table's order *)
  mutable shares : float array;  (** the share of [apps.(i)] *)
  total : total;
      (** the shares summed from 0 in the table's order on every change *)
}

val create : unit -> t

val set : t -> app:int -> float -> unit
(** [set t ~app share] records [app]'s share; a share of 0 or less (or
    NaN) removes the app. An app already present keeps its place.
    @raise Invalid_argument if [share > 0] and [app] is negative. *)
