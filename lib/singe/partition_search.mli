(** Automatic partition search: derive the producer/consumer warp split
    instead of hardcoding it (ROADMAP item 2, DESIGN §16).

    Candidates are structure-derived partitions ({!Mapping.auto_spec} —
    fan-out hubs and loads pinned as producers, arithmetic chains gluing
    onto consumer warps by locality) crossed with pipeline depths (the
    transport ring's slot count). The search runs in three phases:

    {ol
    {- {b score}: every candidate is mapped and {!plan}ned; those whose
       shared-memory floor cannot fit the SM are rejected unlowered, and
       one representative per distinct program compiles through the
       shared memo. All are ranked by {!Perf_model.predict} — static,
       cheap, no simulation;}
    {- {b gate}: the model's top picks pass {!Mapping.validate} and
       {!Deadlock_check.check}. The memoized compile path runs with
       validation off, so this gate is what keeps an unsound searched
       partition away from the simulator — failures surface as
       [partition-rejected] diagnostics;}
    {- {b confirm}: survivors are simulated through {!Autotune.tune}'s
       two-phase machinery with the hand mapping seeded into the grid
       (first, so ties keep the paper's partition) — the returned winner
       is never worse than the hand mapping.}} *)

type rejection = {
  rej_options : Compile.options;  (** the rejected candidate *)
  rej_diag : Diagnostics.t;
      (** pass ["partition-search"], message prefixed [partition-rejected] *)
}

type outcome = {
  base : Compile.options;  (** the hand baseline the search ran against *)
  winner : Compile.options;  (** best options found (never worse than hand) *)
  winner_spec : Mapping.auto_spec option;
      (** [None] when the hand partition won *)
  hand_cycles : float;  (** the hand mapping's cycles at the search size *)
  winner_cycles : float;  (** the winner's cycles ([<= hand_cycles]) *)
  searched : int;  (** candidates proposed and model-scored *)
  gated : int;  (** candidates that reached the safety gate *)
  rejections : rejection list;
      (** compile and gate rejections, in candidate order (deterministic
          under any [jobs]) *)
  simulated : int;  (** grid entries simulation confirmed (incl. hand) *)
  confirmed : bool;
      (** [true]: cycles are simulated; [false]: analytic model only *)
}

val default_top_k : int
(** How many model-ranked candidates reach the gate/simulation phases by
    default (5). *)

val propose : ?max_candidates:int -> Dfg.t -> n_warps:int -> Mapping.auto_spec list
(** The structure-derived candidate specs for a graph: producer-warp
    counts (1, n/4, n/2), hub thresholds (3 and the graph's own
    90th-percentile fan-out), chain weights, and all three shared-memory
    strategies — deterministic, truncated to [max_candidates] (48). *)

val candidate_options : Compile.options -> Dfg.t -> Compile.options list
(** {!propose} crossed with pipeline depths, as full option records (the
    exact population {!search} scores, in evaluation order). *)

(** What the score phase does with one candidate, decided before any
    of them is lowered. *)
type plan =
  | Rejected of exn
      (** the exception the candidate's compile or score would raise:
          rejected options, a failed mapping, or a shared-memory floor
          ({!Lower.shared_floor_doubles}) above the SM's shared memory —
          then it is the [Occupancy_rejected] record the model raises for
          the lowered program (named after the hand program: every
          candidate's program shares that name) *)
  | Representative
      (** the first candidate with its (mapping, effective ring depth):
          compiled through the memo and scored *)
  | Duplicate_of of int
      (** compiles to the same program as this earlier representative,
          whose compile and score it takes. The effective depth is 0 when
          {!Schedule.uses_ring} is false: every depth then builds the
          same schedule. *)

val plan :
  ?jobs:int ->
  Chem.Mechanism.t ->
  Kernel_abi.kernel ->
  Compile.version ->
  hand:Compile.t ->
  Compile.options list ->
  plan list
(** Map every candidate onto the hand compile's DFG (in parallel,
    results in candidate order) and plan it. The candidates must be
    [hand]'s options with another [partition] and [buffer_slots], as
    {!candidate_options} builds them. *)

val gate : Compile.t -> (unit, Diagnostics.t) result
(** The phase-2 safety gate: {!Mapping.validate} then
    {!Deadlock_check.check} on a compiled candidate. *)

val gate_schedule : Schedule.t -> (unit, Diagnostics.t) result
(** The deadlock half of {!gate} alone — what the seeded mutation tests
    drive against {!Deadlock_check.mutants}. *)

val search :
  ?points:int ->
  ?jobs:int ->
  ?top_k:int ->
  ?max_cycles:int ->
  ?simulate:bool ->
  ?n_sms:int ->
  ?skew:float ->
  Chem.Mechanism.t ->
  Kernel_abi.kernel ->
  Compile.version ->
  base:Compile.options ->
  unit ->
  (outcome, Diagnostics.t) result
(** Run the three-phase search against [base] (its [partition] field is
    forced to hand for the baseline comparison; all other fields — warps,
    architecture, occupancy target — frame the search space). With
    [simulate] (default) winners are confirmed through {!Autotune.tune};
    [simulate:false] stops at the analytic ranking (the cheap mode the
    CLI/serve [--partition auto] resolution uses) and reports model
    cycles with [confirmed = false].

    Deterministic under any [jobs]: candidates are folded in index order
    and every tie-break is pinned. The [Baseline] version has nothing to
    partition and returns a hand-only outcome. Failures of the base
    compile itself are returned as a diagnostic. *)

val resolve_options :
  ?points:int ->
  ?jobs:int ->
  Chem.Mechanism.t ->
  Kernel_abi.kernel ->
  Compile.version ->
  base:Compile.options ->
  (Compile.options, Diagnostics.t) result
(** [--partition auto] resolution: model-only search, returning the
    winning option record (the hand base when nothing beat it), or the
    diagnostic of a hand base that fails to compile. *)

val pp_outcome : Format.formatter -> outcome -> unit
