(* Automatic partition search (ROADMAP item 2, DESIGN §16).

   The paper's producer/consumer split is domain knowledge; this pass
   derives it from graph structure instead. Candidates are
   [Mapping.auto_spec]s proposed from the DFG's shape — fan-out hubs and
   loads become producer warps, long arithmetic chains follow locality
   onto consumer warps — crossed with pipeline depths (the transport
   ring's slot count). The whole population is scored analytically with
   [Perf_model.predict] (compile + static model, no simulation), the top
   candidates pass through the safety gate ([Mapping.validate] +
   [Deadlock_check.check] — compile_cached runs with validation off, so
   the gate here is the only thing standing between a searched partition
   and the simulator), and the survivors are confirmed by simulation
   through [Autotune.tune]'s two-phase machinery with the hand mapping
   seeded into the grid, so the returned winner is never worse than the
   paper's partition. *)

type rejection = { rej_options : Compile.options; rej_diag : Diagnostics.t }

type outcome = {
  base : Compile.options;
  winner : Compile.options;
  winner_spec : Mapping.auto_spec option;
  hand_cycles : float;
  winner_cycles : float;
  searched : int;
  gated : int;
  rejections : rejection list;
  simulated : int;
  confirmed : bool;
}

let default_top_k = 5

(* ---- candidate proposal ---- *)

let dedup_sorted l = List.sort_uniq compare l

(* Hub thresholds worth trying: a conventional "more than a couple of
   consumers" cut plus the graph's own heavy tail (the 90th-percentile
   fan-out), so mechanisms whose staging vectors feed dozens of consumers
   classify them as hubs without sweeping every integer. *)
let hub_candidates (dfg : Dfg.t) =
  let fanouts =
    Array.to_list dfg.Dfg.values
    |> List.map (fun (v : Dfg.value) -> List.length v.Dfg.consumers)
    |> List.filter (fun f -> f >= 2)
    |> List.sort compare
  in
  let p90 =
    match fanouts with
    | [] -> 3
    | l ->
        let n = List.length l in
        max 2 (List.nth l (min (n - 1) (n * 9 / 10)))
  in
  dedup_sorted [ 3; min 8 p90 ]

let producer_candidates ~n_warps =
  dedup_sorted [ 1; max 1 (n_warps / 4); max 1 (n_warps / 2) ]

let chain_candidates = [ 1.0; 2.5 ]
let strategy_candidates = [ Mapping.Store; Mapping.Buffer; Mapping.Mixed ]

let propose ?(max_candidates = 48) (dfg : Dfg.t) ~n_warps =
  let specs =
    List.concat_map
      (fun producer_warps ->
        List.concat_map
          (fun hub_threshold ->
            List.concat_map
              (fun chain_weight ->
                List.map
                  (fun auto_strategy ->
                    {
                      Mapping.producer_warps;
                      hub_threshold;
                      chain_weight;
                      auto_strategy;
                    })
                  strategy_candidates)
              chain_candidates)
          (hub_candidates dfg))
      (producer_candidates ~n_warps)
  in
  List.filteri (fun i _ -> i < max_candidates) specs

(* Pipeline depths: the base ring plus a shallow one — a searched
   partition that communicates less may pay for a deep ring it never
   fills (shared footprint costs occupancy). *)
let depth_candidates (base : Compile.options) =
  dedup_sorted [ base.Compile.buffer_slots; 16 ]

let candidate_options (base : Compile.options) (dfg : Dfg.t) =
  List.concat_map
    (fun spec ->
      List.map
        (fun buffer_slots ->
          {
            base with
            Compile.partition = Compile.Partition_auto spec;
            buffer_slots;
          })
        (depth_candidates base))
    (propose dfg ~n_warps:base.Compile.n_warps)

(* ---- Phase A's funnel: map, floor-reject, deduplicate ----

   Candidates differ only in [partition] and [buffer_slots], and neither
   reaches the DFG, so each maps onto the hand compile's graph. Before any
   lowering, a candidate whose shared-memory floor already exceeds the SM
   is rejected with the occupancy record the model would raise on the
   lowered program, and candidates that would compile to the same program
   — equal mapping and equal effective ring depth — share one compile. *)

type plan = Rejected of exn | Representative | Duplicate_of of int

let plan ?jobs mech kernel version ~(hand : Compile.t) cands =
  let dfg = hand.Compile.dfg in
  let map_one options =
    (match Compile.check_options mech kernel version options with
    | Ok () -> ()
    | Error d -> raise (Diagnostics.Fail d));
    let mapping = Compile.map_warps kernel options dfg in
    let arch = options.Compile.arch in
    let floor =
      Lower.shared_floor_doubles (Compile.lower_config version options) dfg
        mapping
    in
    if floor * 8 > arch.Gpusim.Arch.shared_bytes_per_sm then
      raise
        (Gpusim.Chip.Occupancy_rejected
           {
             program = hand.Compile.lowered.Lower.program.Gpusim.Isa.name;
             arch = arch.Gpusim.Arch.name;
             kind = Does_not_fit { limited_by = "shared memory" };
           });
    (* Without ring traffic every depth builds the same schedule. *)
    let depth =
      if Schedule.uses_ring dfg mapping then options.Compile.buffer_slots
      else 0
    in
    (mapping, depth)
  in
  let reps = Hashtbl.create 16 in
  List.mapi
    (fun i -> function
      | Error e -> Rejected e
      | Ok key -> (
          match Hashtbl.find_opt reps key with
          | Some j -> Duplicate_of j
          | None ->
              Hashtbl.add reps key i;
              Representative))
    (Sutil.Domain_pool.parallel_map_result ?jobs map_one cands)

(* ---- the safety gate ---- *)

let reject what msgs =
  Diagnostics.error ~pass:"partition-search"
    (Printf.sprintf "partition-rejected: %s: %s" what (String.concat "; " msgs))

let gate_schedule schedule =
  match Deadlock_check.check schedule with
  | Ok () -> Ok ()
  | Error msgs -> Error (reject "deadlock-check" msgs)

let gate (c : Compile.t) =
  match Mapping.validate c.Compile.dfg c.Compile.mapping with
  | Error msgs -> Error (reject "mapping-validate" msgs)
  | Ok () -> gate_schedule c.Compile.schedule

(* ---- the search ---- *)

let diag_of_exn e =
  match e with
  | Diagnostics.Fail d -> d
  | e ->
      let reason, _ = Autotune.classify_exn e in
      Diagnostics.error ~pass:"partition-search" reason

let hand_only ~base ~confirmed ~cycles =
  {
    base;
    winner = base;
    winner_spec = None;
    hand_cycles = cycles;
    winner_cycles = cycles;
    searched = 0;
    gated = 0;
    rejections = [];
    simulated = (if confirmed then 1 else 0);
    confirmed;
  }

let search ?(points = 32768) ?jobs ?(top_k = default_top_k)
    ?(max_cycles = 200_000_000) ?(simulate = true) ?n_sms ?skew mech kernel
    version ~base () =
  let base = { base with Compile.partition = Compile.Partition_hand } in
  match
    let hand = Compile.compile_cached mech kernel version base in
    let hand_pred = Perf_model.predict ?n_sms ?skew hand ~total_points:points in
    if version = Compile.Baseline then
      (* The data-parallel baseline maps onto a single warp; there is
         nothing to partition. *)
      hand_only ~base ~confirmed:false ~cycles:hand_pred.Perf_model.cycles
    else begin
      let cands = candidate_options base hand.Compile.dfg in
      let indexed = List.mapi (fun i o -> (i, o)) cands in
      (* Phase A — plan the population, then compile (through the shared
         memo) and score each representative analytically; a duplicate
         takes its representative's compile and score. *)
      let plans = Array.of_list (plan ?jobs mech kernel version ~hand cands) in
      let reps =
        List.filter
          (fun (i, _) ->
            match plans.(i) with Representative -> true | _ -> false)
          indexed
      in
      let score (_i, options) =
        let c = Compile.compile_cached mech kernel version options in
        let p = Perf_model.predict ?n_sms ?skew c ~total_points:points in
        (c, p)
      in
      let rep_scores = Hashtbl.create 16 in
      List.iter2
        (fun (i, _) res -> Hashtbl.add rep_scores i res)
        reps
        (Sutil.Domain_pool.parallel_map_result ?jobs score reps);
      let scored =
        List.map
          (fun (i, _) ->
            match plans.(i) with
            | Rejected e -> Error e
            | Representative -> Hashtbl.find rep_scores i
            | Duplicate_of j -> Hashtbl.find rep_scores j)
          indexed
      in
      let rejections = ref [] in
      let ok = ref [] in
      (* Folded in candidate-index order so rejections and ranking are
         independent of [jobs]. *)
      List.iter2
        (fun (i, options) res ->
          match res with
          | Error e ->
              rejections :=
                (i, { rej_options = options; rej_diag = diag_of_exn e })
                :: !rejections
          | Ok (c, p) -> ok := (i, options, c, p) :: !ok)
        indexed scored;
      let ranked =
        List.sort
          (fun (i1, _, _, (p1 : Perf_model.prediction)) (i2, _, _, p2) ->
            match compare p1.Perf_model.cycles p2.Perf_model.cycles with
            | 0 -> compare i1 i2
            | c -> c)
          !ok
      in
      let top = List.filteri (fun r _ -> r < max 1 top_k) ranked in
      (* Phase B — the safety gate on the model's picks. *)
      let survivors =
        List.filter_map
          (fun (i, options, c, p) ->
            match gate c with
            | Ok () -> Some (i, options, p)
            | Error d ->
                rejections :=
                  (i, { rej_options = options; rej_diag = d }) :: !rejections;
                None)
          top
      in
      let gated = List.length top in
      let rejections =
        List.sort (fun (i1, _) (i2, _) -> compare i1 i2) !rejections
        |> List.map snd
      in
      let searched = List.length cands in
      (* Phase C — confirm by simulation through Autotune's two-phase
         machinery, hand seeded first so ties keep the paper's mapping. *)
      if simulate then begin
        let grid =
          base :: List.map (fun (_, options, _) -> options) survivors
        in
        let out =
          Autotune.tune ~points ?jobs ~max_cycles ?n_sms ?skew ~grid mech
            kernel version base.Compile.arch
        in
        let hand_res =
          Compile.run hand ~total_points:points ~max_cycles ?n_sms ?skew
        in
        let winner = out.Autotune.best.Autotune.options in
        {
          base;
          winner;
          winner_spec =
            (match winner.Compile.partition with
            | Compile.Partition_hand -> None
            | Compile.Partition_auto s -> Some s);
          hand_cycles =
            float_of_int hand_res.Compile.machine.Gpusim.Machine.sm_cycles;
          winner_cycles =
            float_of_int
              out.Autotune.best.Autotune.result.Compile.machine
                .Gpusim.Machine.sm_cycles;
          searched;
          gated;
          rejections;
          simulated = out.Autotune.tried - out.Autotune.skipped;
          confirmed = true;
        }
      end
      else begin
        let best_auto =
          List.fold_left
            (fun acc (i, options, (p : Perf_model.prediction)) ->
              match acc with
              | Some (_, _, (pb : Perf_model.prediction))
                when pb.Perf_model.cycles <= p.Perf_model.cycles ->
                  acc
              | _ -> Some (i, options, p))
            None survivors
        in
        let winner, winner_spec, winner_cycles =
          match best_auto with
          | Some (_, options, p)
            when p.Perf_model.cycles < hand_pred.Perf_model.cycles -> (
              ( options,
                (match options.Compile.partition with
                | Compile.Partition_auto s -> Some s
                | Compile.Partition_hand -> None),
                p.Perf_model.cycles ))
          | Some _ | None -> (base, None, hand_pred.Perf_model.cycles)
        in
        {
          base;
          winner;
          winner_spec;
          hand_cycles = hand_pred.Perf_model.cycles;
          winner_cycles;
          searched;
          gated;
          rejections;
          simulated = 0;
          confirmed = false;
        }
      end
    end
  with
  | o -> Ok o
  | exception Diagnostics.Fail d -> Error d
  | exception e -> Error (diag_of_exn e)

let resolve_options ?points ?jobs mech kernel version ~base =
  search ?points ?jobs ~simulate:false mech kernel version ~base ()
  |> Result.map (fun o -> o.winner)

let pp_outcome ppf o =
  let verb = if o.confirmed then "simulated" else "predicted" in
  Format.fprintf ppf
    "@[<v>partition search: %d candidate(s), %d gated, %d rejected, %d \
     simulated@,%s cycles: hand %.0f, winner %.0f (%s)@,winner: %a@]"
    o.searched o.gated
    (List.length o.rejections)
    o.simulated verb o.hand_cycles o.winner_cycles
    (match o.winner_spec with None -> "hand mapping" | Some _ -> "searched")
    (fun ppf -> function
      | None -> Format.pp_print_string ppf "the hand partition"
      | Some s -> Mapping.pp_auto_spec ppf s)
    o.winner_spec
