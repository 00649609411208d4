(** A FIFO of time-stamped entries, in linked fixed-size array chunks.

    Entries are pushed with nondecreasing stamps (simulated instants), so
    the oldest entry is also the least-stamped one, and a window over
    recent history expires entries from the head: test {!oldest_stamp},
    then {!drop_oldest}. An entry costs two array slots. Growing never
    copies, every allocation is small enough for the minor heap, and once
    a window has reached its working size, push and drop allocate
    nothing. *)

type 'a t

val create : unit -> 'a t
(** An empty ring; it allocates its first chunk on the first push. *)

val length : 'a t -> int

val push : 'a t -> Time.t -> 'a -> unit
(** Append an entry stamped with the given instant. *)

val oldest_stamp : 'a t -> Time.t
(** @raise Invalid_argument if the ring is empty. *)

val oldest : 'a t -> 'a
(** @raise Invalid_argument if the ring is empty. *)

val drop_oldest : 'a t -> unit
(** Remove the oldest entry; the ring no longer references it.
    @raise Invalid_argument if the ring is empty. *)

val iter : 'a t -> (Time.t -> 'a -> unit) -> unit
(** Oldest first. *)

val fold_back : (Time.t -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
(** Newest first, like [List.fold_right]: consing builds an oldest-first
    list. *)
