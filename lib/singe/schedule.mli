(** Named-barrier placement and scheduling (§4.2, the third compiler
    stage).

    The scheduler walks the dataflow graph in one topological order and
    builds a per-warp action list. Cross-warp edges become {e sync points};
    linearizing them along the topological walk gives the total order of
    the paper's algorithm, so by Theorem 1 the resulting schedules are
    deadlock-free (the property tests check this by construction and by
    running the simulator's exact deadlock detector on random graphs).

    Two of the paper's optimizations are applied:
    {ul
    {- {e grouping}: a producer's arrival covers every value it has
       produced so far for a given consumer warp, so consecutive sync
       points between the same warp pair collapse into one barrier;}
    {- {e hoisting}: arrivals are inserted at the earliest legal position
       (right after the covered production), overlapping producer and
       consumer work — the non-blocking-arrive pattern of Fig. 2 and the
       QSSA overlap of Fig. 6.}}

    Values whose mapping placement is [P_reg] but which have cross-warp
    consumers travel through a ring of shared-memory {e buffer} slots
    (§4.1's Buffer strategy): a send/arrive on the producer side and a
    wait/receive on the consumer side, with an extra empty-slot barrier
    when a ring slot is reused (the two-barrier scheme of Fig. 2).

    Sync points are finally mapped onto hardware named barrier ids
    (at most [max_barriers], default 8, so two CTAs can still be resident
    per SM — the footnote of §4.2). Because a named barrier is a bare
    arrival counter, an id is never recycled while a previous sync could
    still be in flight: sync points are packed into {e epochs} with unique
    ids, and a CTA-wide barrier closes each epoch, after which every
    counter has provably drained to zero. *)

type action =
  | A_op of int  (** execute a dataflow operation *)
  | A_send of { value : int; slot : int }
      (** store a register value to buffer slot (32 doubles) *)
  | A_recv of { value : int; slot : int }
      (** load a buffer slot into a local register copy *)
  | A_arrive of { bar : int; count : int }
  | A_wait of { bar : int; count : int }
  | A_cta_barrier
      (** closes each point batch: the body loops, and without a CTA-wide
          barrier a fast warp could overwrite shared state before slower
          warps read the previous batch's values *)

type t = {
  per_warp : action array array;
  stamps : int array array;
      (** global emission-order stamp of each action, used by the code
          generator to keep the simultaneous AST traversal aligned *)
  barriers_used : int;
  buffer_slots : int;  (** ring size, in 32-double slots *)
  n_sync_points : int;  (** before barrier allocation *)
}

val build :
  ?buffer_slots:int ->
  ?group_syncs:bool ->
  ?max_barriers:int ->
  Dfg.t ->
  Mapping.t ->
  t
(** [group_syncs:false] disables the grouping optimization (one barrier per
    cross-warp edge) — the ablation of §6.2's barrier-overhead analysis.
    Raises [Failure] if more than [max_barriers] sync points overlap one
    program point (not observed with grouping on). *)

val uses_ring : Dfg.t -> Mapping.t -> bool
(** Whether {!build} allocates any transport-ring slot for this mapping:
    some non-fence op reads a register-placed value produced on another
    warp. When it does not, [buffer_slots] never reaches the result, so
    {!build} returns equal schedules for every ring size. *)

val shared_buffer_base : Mapping.t -> int
(** The buffer region starts right after the store region. *)

val total_shared_doubles : Mapping.t -> t -> int
(** Store region + buffer region (the Fermi broadcast mirror is added by
    lowering). *)

val well_formed : t -> Dfg.t -> Mapping.t -> (unit, string) result
(** Structural invariants: every op appears exactly once, on its mapped
    warp, in a dependency-respecting order; every cross-warp register edge
    has a matching send/recv; arrive/wait counts per barrier id are
    consistent. *)

val pairing_problems : t -> string list
(** Named-barrier producer/consumer pairing, checked per {e use} along
    the global emission-stamp order (the construction's linearization):
    each barrier id's action stream must decompose into consecutive uses
    of [count - 1] arrivals followed by one wait, all agreeing on
    [count]. A single use may span a CTA-wide boundary (the allocator
    keeps in-flight ids across id-pressure boundaries; arrivals always
    precede the wait, so the cut is benign) — but consecutive {e uses}
    of one id must be separated by a boundary past every attachment of
    the earlier use, the condition that drains the hardware counter and
    makes recycling the id safe. Returns one message per violation;
    shared by {!validate} and [Deadlock_check.check]. *)

val validate :
  ?max_barriers:int -> t -> Dfg.t -> Mapping.t -> (unit, string list) result
(** The schedule-safety validation pass: {!well_formed}, plus
    {ul
    {- named-barrier producer/consumer pairing and id-recycling safety
       ({!pairing_problems});}
    {- the §4.2 coloring bound: [barriers_used] of at most [max_barriers]
       (and never beyond the 16 hardware ids);}
    {- transport sanity: send/recv ring slots within [buffer_slots], and
       emission stamps strictly increasing per warp (the overlaying
       invariant).}} *)

val pp_dump : Dfg.t -> Format.formatter -> t -> unit
(** Per-warp action streams with emission stamps — the
    [--dump-ir schedule] output. *)
