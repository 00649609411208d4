(** The event queue's binary min-heap.

    Entries are [(time, seq, payload)] triples of ints, ordered by
    [(time, seq)]: earlier time first, lower [seq] first within an
    instant. They live in three parallel [int array]s and the order is
    compared inline, so no operation calls a comparator or allocates,
    except {!push} when it doubles the arrays. {!Sim} keys each event by
    its time and scheduling sequence number and carries its pool index
    as the payload. *)

type t

val create : unit -> t
(** An empty heap. *)

val size : t -> int
(** The number of entries. *)

val push : t -> time:int -> seq:int -> int -> unit
(** [push h ~time ~seq d] adds the entry [(time, seq, d)]. [seq] must be
    unique among the entries, so that the order is total. *)

val top : t -> int
(** The payload of the least entry, or [-1] if the heap is empty (so a
    caller that pushes only non-negative payloads needs no {!size} check). *)

val drop : t -> unit
(** Remove the least entry. The heap must not be empty. *)

val filter_in_place : t -> keep:(int -> bool) -> unit
(** [filter_in_place h ~keep] removes every entry whose payload fails
    [keep], calling [keep] once per entry in array order, then restores
    the heap order bottom-up, in O(n). The event queue reaps cancelled
    events with it. *)
