(** Brute-force exhaustive autotuning (§4), optionally pruned by the
    analytic performance model.

    The paper: "we used a brute-force exhaustive autotuning script to drive
    Singe"; the searchable dimensions are deliberately coarse (warps per
    CTA, target CTAs per SM, mapping weights, shared-memory strategy), so
    the space stays at a few hundred points. Configurations that do not
    compile or fit (register file, shared memory, barrier budget) are
    skipped, exactly as a failing [nvcc] invocation would be.

    {!Perf_model} makes a cheaper sweep possible: every candidate is
    scored analytically first (static prediction, no simulation), and in
    {!Pruned} mode only the model's top picks are actually simulated. The
    exhaustive mode stays the default and the reference. *)

type mode =
  | Exhaustive  (** simulate every candidate (the paper's sweep) *)
  | Pruned of int
      (** score the whole grid with {!Perf_model.predict}, simulate only
          the top-[k] predicted candidates ({!default_prune_keep} is the
          conventional [k]) *)

type candidate = {
  options : Compile.options;
  throughput : float;  (** points per second at the tuning problem size *)
  compiled : Compile.t;
  result : Compile.run_result;
  predicted : Perf_model.prediction;
      (** the model's static score for this configuration — recorded in
          both modes so sweeps can report predicted-vs-measured *)
}

type failure = {
  failed_options : Compile.options;
  reason : string;  (** one-line cause, e.g. the diagnostic or fault *)
  fault : Gpusim.Sm.fault_kind option;
      (** [Some _] when the candidate died in a contained simulation
          fault (deadlock, livelock, watchdog budget) *)
}

type outcome = {
  best : candidate;
  tried : int;
  skipped : int;  (** configurations that failed to compile, fit or run *)
  failures : failure list;
      (** the skipped candidates' causes, in candidate order *)
  mode : mode;  (** the mode this sweep actually ran under *)
  candidates_pruned : int;
      (** compilable candidates the model excluded from simulation
          (always 0 when exhaustive) *)
  model_rank_of_winner : int;
      (** 1-based rank {!Perf_model} gave the measured winner over the
          compilable grid (1 = the model's own first pick; 0 only if the
          winner was somehow unranked) *)
}

val classify_exn : exn -> string * Gpusim.Sm.fault_kind option
(** Render a per-candidate failure one-line ([Simulation_fault]s keep
    their structured kind); shared with {!Partition_search}'s rejection
    bookkeeping. *)

val default_prune_keep : int
(** How many model-ranked candidates a pruned sweep simulates by default
    (8) — the [--tune-mode pruned] CLI default. *)

val default_warp_candidates :
  Chem.Mechanism.t -> Kernel_abi.kernel -> Compile.version -> int list
(** Warp counts worth trying: divisors and near-divisors of the computed
    species count for warp-specialized kernels (Fig. 9's peaks), powers of
    two for the data-parallel baseline. *)

val candidate_options :
  ?synth_exchange:bool ->
  ?stencil_overlap:bool ->
  points:int ->
  Kernel_abi.kernel ->
  Compile.version ->
  Gpusim.Arch.t ->
  int list ->
  int list ->
  Compile.options list
(** [candidate_options ~points kernel version arch warp_candidates
    cta_targets] is the exact candidate grid {!tune} sweeps, in
    evaluation order — exposed so tests can address individual candidates
    (e.g. to poison one by index). [synth_exchange] forces the
    {!Shuffle_synth} exchange rewrite on or off for every candidate
    (default: each candidate keeps the per-architecture auto setting).
    [stencil_overlap] fixes the stencil tiling mode across the grid
    (default: the overlapped default; ignored by combustion kernels).
    Warp counts whose launch grid cannot cover [points]
    ({!Compile.launch_ctas}) are left out. *)

val tune :
  ?points:int ->
  ?warp_candidates:int list ->
  ?cta_targets:int list ->
  ?jobs:int ->
  ?max_cycles:int ->
  ?inject:(int -> Gpusim.Fault.t list) ->
  ?mode:mode ->
  ?n_sms:int ->
  ?skew:float ->
  ?synth_exchange:bool ->
  ?stencil_overlap:bool ->
  ?grid:Compile.options list ->
  Chem.Mechanism.t ->
  Kernel_abi.kernel ->
  Compile.version ->
  Gpusim.Arch.t ->
  outcome
(** Evaluates the candidate grid at the (small) tuning size (default
    32768 points = 32^3) and returns the fastest configuration. Raises
    [Failure] if no candidate ran.

    [grid] replaces the built-in warp x CTA x policy candidate grid with
    an explicit list of option records, evaluated in list order under the
    same two-phase machinery (model scoring, then simulation with fault
    containment and the index-ordered deterministic winner fold) —
    {!Partition_search} confirms its searched partitions through this.
    [warp_candidates]/[cta_targets]/[synth_exchange] are ignored when
    [grid] is given.

    [n_sms]/[skew] are forwarded to both {!Perf_model.predict} (model
    scoring) and {!Compile.run} (simulation), so a sweep tunes for the
    chip configuration it will actually run on. [synth_exchange] forces
    the exchange rewrite on or off across the whole grid (default: the
    per-architecture auto setting).

    Every candidate is first compiled ({!Compile.compile_cached}, so a
    configuration revisited across kernels/figures compiles once) and
    scored with {!Perf_model.predict}. Under [?mode] (default
    {!Exhaustive}) either the whole compilable grid or only the model's
    top-[k] picks are then simulated; [candidates_pruned] and
    [model_rank_of_winner] record what the model did either way.

    Candidates are independent jobs and are evaluated on up to [jobs]
    domains ({!Sutil.Domain_pool.default_jobs} when omitted);
    [tried]/[skipped]/[failures] and the winner are folded from the
    results in candidate order, so the outcome is identical to the serial
    sweep's. The winner tie-break is pinned: on equal measured
    throughput the lowest candidate index wins, independent of [jobs].

    {b Fault containment.} Every candidate runs under the simulator
    watchdog ([max_cycles], default 2e8 — far beyond any legitimate
    tuning-size simulation), and any per-candidate exception — a
    compile/fit failure, a {!Gpusim.Sm.Simulation_fault}, wrong results —
    is captured as a {!failure} and the candidate skipped, so one bad
    configuration can neither hang nor abort the sweep. [inject] maps a
    candidate's index in the grid to trace faults for its simulation
    (default none); used by the containment tests. *)
