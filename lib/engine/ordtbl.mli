(** Small non-negative int keys, iterated in the order of a [Hashtbl].

    The key side of an int-keyed table whose values the caller keeps in
    its own key-indexed arrays. Membership is O(1), through an array
    indexed by key. Iteration ({!key} [t 0] to [key t (length t - 1)])
    follows exactly the order in which a [Hashtbl.create 8] holding the
    same keys would iterate after the same [replace]/[remove] history:

    - entries are ordered by bucket, [Hashtbl.hash key] masked by the
      bucket count;
    - the bucket count starts at 16 and doubles once the table holds more
      than twice that many entries;
    - within a bucket, the newest insertion comes first; re-adding a key
      that is already present keeps its place.

    A float fold over the keys in this order therefore sums in the same
    order, and to the same bits, as a fold over the table it replaces.
    Adding and removing shift a dense array, O(length); nothing is
    allocated unless a key or the entry count outgrows the arrays. *)

type t

val create : unit -> t
val length : t -> int

val key : t -> int -> int
(** [key t i] is the [i]-th key in iteration order, [0 <= i < length t]. *)

val mem : t -> int -> bool

val add : t -> int -> unit
(** Insert [key] as the newest entry of its bucket; a no-op if it is
    already present. @raise Invalid_argument if [key] is negative. *)

val remove : t -> int -> unit
(** A no-op if [key] is absent. *)
