(** Tables keyed by small non-negative ids (app ids, thread ids,
    uProcess slots), stored densely: slot [id] of an array sized by the
    largest id bound so far.

    The per-event paths look ids up on every dispatch, charge and
    wake. A generic [Hashtbl] pays a [caml_hash] call and a polymorphic
    key compare per lookup; here a lookup is a bounds test and one
    load, and allocates nothing. Iteration is in ascending id order. *)

type 'a t

val max_id : int
(** Largest id {!set} accepts ([2^22 - 1]); the table's array is as
    long as the largest id bound, so ids must stay small. *)

val create : unit -> 'a t

val find_opt : 'a t -> int -> 'a option
(** [None] for an unbound id, including any id outside [\[0, max_id\]].
    Allocation-free. *)

val mem : 'a t -> int -> bool

val set : 'a t -> int -> 'a -> unit
(** Bind [id], replacing any previous binding. Raises
    [Invalid_argument] if [id] is outside [\[0, max_id\]]. *)

val remove : 'a t -> int -> unit
(** Unbind [id]; a no-op when unbound. *)

val length : 'a t -> int
(** Number of bound ids. *)

val fold : (int -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
(** Ascending id order. *)

val iter : (int -> 'a -> unit) -> 'a t -> unit
(** Ascending id order. *)

val ids : 'a t -> int list
(** Bound ids, ascending. *)

val clear : 'a t -> unit
