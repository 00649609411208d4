(** The apps' usage shares of one device, readable on a hot path.

    A table from app to share whose entries are also copied, in the
    table's iteration order, into two arrays and a running sum on every
    change. A reader that settles energy on every power transition walks
    the arrays instead of the table: it allocates nothing, and it sees the
    shares in exactly the order, and with exactly the sum, that folding
    the table would give. *)

type total = { mutable sum : float }
(** Float-only, so storing the sum does not box it. *)

type t = private {
  table : (int, float) Hashtbl.t;  (** app -> share, every share > 0 *)
  mutable len : int;  (** entries copied *)
  mutable apps : int array;  (** [apps.(i)], [i < len]: the table's order *)
  mutable shares : float array;  (** the share of [apps.(i)] *)
  total : total;  (** the shares summed in the table's order *)
  mutable copy : int -> float -> unit;
      (** the copying callback, built once rather than as a fresh closure
          on every change *)
}

val create : unit -> t

val set : t -> app:int -> float -> unit
(** [set t ~app share] records [app]'s share; a share of 0 or less (or
    NaN) removes the app. *)
