(** A bounded least-recently-used table: the policy of every long-lived
    cache (the compile memo, serve's idempotency and tuned-configuration
    caches). A hit or an insertion makes its entry the most recent; an
    insertion beyond the capacity evicts the least recent. Not
    synchronised: a shared table is guarded by its owner. *)

type ('k, 'v) t

val create : int -> ('k, 'v) t
(** Raises [Invalid_argument] when the capacity is below 1. *)

val find : ('k, 'v) t -> 'k -> 'v option
val add : ('k, 'v) t -> 'k -> 'v -> unit
val remove : ('k, 'v) t -> 'k -> unit

val set_capacity : ('k, 'v) t -> int -> unit
(** Evicts at once down to the new capacity (which must be >= 1). *)

val clear : ('k, 'v) t -> unit
val iter : ('k -> 'v -> unit) -> ('k, 'v) t -> unit
val length : ('k, 'v) t -> int
val capacity : ('k, 'v) t -> int

val evictions : ('k, 'v) t -> int
(** Entries evicted by the capacity since {!create}; {!remove} and
    {!clear} do not count. *)
