type mode = Exhaustive | Pruned of int

type candidate = {
  options : Compile.options;
  throughput : float;
  compiled : Compile.t;
  result : Compile.run_result;
  predicted : Perf_model.prediction;
}

type failure = {
  failed_options : Compile.options;
  reason : string;
  fault : Gpusim.Sm.fault_kind option;
}

type outcome = {
  best : candidate;
  tried : int;
  skipped : int;
  failures : failure list;
  mode : mode;
  candidates_pruned : int;
  model_rank_of_winner : int;
}

let default_prune_keep = 8

let default_warp_candidates mech kernel version =
  match version with
  | Compile.Baseline -> [ 4; 8; 16 ]
  | Compile.Warp_specialized | Compile.Naive_warp_specialized -> (
      let n = Array.length (Chem.Mechanism.computed_species mech) in
      let divisors =
        List.filter (fun w -> n mod w = 0) (List.init 17 (fun i -> i + 2))
      in
      let extras = [ 4; 8; 16 ] in
      let all = List.sort_uniq compare (divisors @ extras) in
      let all = List.filter (fun w -> w >= 2 && w <= 20) all in
      match kernel with
      | Kernel_abi.Chemistry ->
          (* Chemistry gains both from many warps (rates stay resident) and
             from few warps with several resident CTAs (its long dependence
             chains hide behind cross-CTA parallelism), so search both ends. *)
          List.sort_uniq compare (all @ [ 20 ])
      | Kernel_abi.Viscosity | Kernel_abi.Conductivity | Kernel_abi.Diffusion
        -> all
      | Kernel_abi.Stencil _ ->
          (* Stencil stages do not depend on the mechanism's species count;
             the useful axis is the producer/consumer band split, which
             scales with powers of two. *)
          [ 2; 4; 8; 16 ])

let candidate_options ?synth_exchange ?stencil_overlap ~points kernel version
    arch warp_candidates cta_targets =
  List.concat_map
    (fun n_warps ->
      List.concat_map
        (fun ctas_per_sm_target ->
          if
            Result.is_error
              (Compile.launch_ctas kernel version ~n_warps ~total_points:points)
          then []
          else
            (* Chemistry also searches its communication policy (staged vs
               mixed); pure recomputation never won end-to-end. *)
            let comm_candidates =
              if kernel = Kernel_abi.Chemistry && version <> Compile.Baseline
              then [ Some Compile.Chem_staged; Some Compile.Chem_mixed ]
              else [ None ]
            in
            List.map
              (fun chem_comm ->
                let defaults = Compile.default_options arch in
                {
                  defaults with
                  Compile.n_warps;
                  ctas_per_sm_target;
                  chem_comm;
                  synth_exchange =
                    (match synth_exchange with
                    | Some b -> Some b
                    | None -> defaults.Compile.synth_exchange);
                  stencil_overlap =
                    (match stencil_overlap with
                    | Some b -> b
                    | None -> defaults.Compile.stencil_overlap);
                  max_barriers =
                    (if kernel = Kernel_abi.Chemistry then
                       16 / ctas_per_sm_target
                     else 8);
                })
              comm_candidates)
        cta_targets)
    warp_candidates

(* Render a captured per-candidate failure; simulation faults keep their
   structured kind so sweep drivers can count containment events. *)
let classify_exn = function
  | Gpusim.Sm.Simulation_fault r ->
      ( Printf.sprintf "simulation fault: %s at cycle %d — %s"
          (Gpusim.Sm.fault_kind_name r.Gpusim.Sm.fault_kind)
          r.Gpusim.Sm.fault_cycle r.Gpusim.Sm.detail,
        Some r.Gpusim.Sm.fault_kind )
  | Gpusim.Chip.Occupancy_rejected r ->
      ("occupancy rejected: " ^ Gpusim.Chip.reject_message r, None)
  | Diagnostics.Fail d -> (Diagnostics.to_string d, None)
  | Failure msg -> (msg, None)
  | Invalid_argument msg -> ("invalid argument: " ^ msg, None)
  | e -> (Printexc.to_string e, None)

let tune ?(points = 32768) ?warp_candidates ?(cta_targets = [ 1; 2 ]) ?jobs
    ?(max_cycles = 200_000_000) ?inject ?(mode = Exhaustive) ?n_sms ?skew
    ?synth_exchange ?stencil_overlap ?grid mech kernel version arch =
  let candidates =
    match grid with
    | Some g -> g
    | None ->
        let warp_candidates =
          match warp_candidates with
          | Some l -> l
          | None -> default_warp_candidates mech kernel version
        in
        candidate_options ?synth_exchange ?stencil_overlap ~points kernel
          version arch warp_candidates cta_targets
  in
  let indexed = List.mapi (fun i o -> (i, o)) candidates in
  (* Phase 1 — compile and score every candidate analytically. This runs
     in both modes (it is cheap: {!Compile.compile_cached} plus
     {!Perf_model.predict}, no simulation), so the outcome can always
     report where the model ranked the measured winner. A candidate that
     fails to compile or fit is a failure in either mode — the model
     never sees it. *)
  let score (_idx, options) =
    let compiled = Compile.compile_cached mech kernel version options in
    let predicted =
      Perf_model.predict ?n_sms ?skew compiled ~total_points:points
    in
    (compiled, predicted)
  in
  let scored = Sutil.Domain_pool.parallel_map_result ?jobs score indexed in
  let compile_failures = ref [] in
  let compiled_ok = ref [] in
  List.iter2
    (fun (idx, options) outcome ->
      match outcome with
      | Error e ->
          let reason, fault = classify_exn e in
          compile_failures :=
            (idx, { failed_options = options; reason; fault })
            :: !compile_failures
      | Ok (compiled, predicted) ->
          compiled_ok := (idx, options, compiled, predicted) :: !compiled_ok)
    indexed scored;
  (* Rank the compilable candidates by predicted throughput; ties break
     towards the lower candidate index so the order is total and
     deterministic. [rank_of] maps a candidate index to its 1-based model
     rank. *)
  let ranked =
    List.sort
      (fun (i1, _, _, (p1 : Perf_model.prediction)) (i2, _, _, p2) ->
        match
          compare p2.Perf_model.points_per_sec p1.Perf_model.points_per_sec
        with
        | 0 -> compare i1 i2
        | c -> c)
      !compiled_ok
  in
  let rank_of = Hashtbl.create 64 in
  List.iteri
    (fun r (idx, _, _, _) -> Hashtbl.replace rank_of idx (r + 1))
    ranked;
  let selected, candidates_pruned =
    match mode with
    | Exhaustive -> (ranked, 0)
    | Pruned keep ->
        let keep = max 1 keep in
        let sel = List.filteri (fun r _ -> r < keep) ranked in
        (sel, List.length ranked - List.length sel)
  in
  (* Simulate in candidate-index order: the fold below then reproduces the
     serial sweep's [skipped]/[failures] bookkeeping and winner exactly,
     no matter which worker evaluated what. *)
  let selected =
    List.sort (fun (i1, _, _, _) (i2, _, _, _) -> compare i1 i2) selected
  in
  (* Phase 2 — simulate the surviving candidates (all of them when
     exhaustive, the model's top picks when pruned) with per-item failure
     capture. A faulty candidate — one that deadlocks, exhausts the
     [max_cycles] watchdog budget, or computes wrong results — is
     recorded and skipped; the sweep completes on the survivors. *)
  let eval (idx, options, compiled, predicted) =
    let faults = match inject with None -> [] | Some f -> f idx in
    let result =
      Compile.run compiled ~total_points:points ~faults ~max_cycles ?n_sms
        ?skew
    in
    if result.Compile.max_rel_err > 1e-6 then
      failwith
        (Printf.sprintf
           "autotune: config warps=%d ctas=%d produced wrong results (rel \
            err %.2g)"
           options.Compile.n_warps options.Compile.ctas_per_sm_target
           result.Compile.max_rel_err);
    let throughput = result.Compile.machine.Gpusim.Machine.points_per_sec in
    { options; throughput; compiled; result; predicted }
  in
  let evaluated =
    Sutil.Domain_pool.parallel_map_result ?jobs eval selected
  in
  let tried = List.length candidates in
  let sim_failures, best =
    List.fold_left2
      (fun (failures, best) (idx, options, _, _) outcome ->
        match outcome with
        | Error e ->
            let reason, fault = classify_exn e in
            ( (idx, { failed_options = options; reason; fault }) :: failures,
              best )
        | Ok cand -> (
            match best with
            (* Winner tie-break is pinned: on equal throughput the earlier
               candidate index wins ([>=] keeps the incumbent and the fold
               visits candidates in index order), so the reported best
               cannot depend on [jobs] or worker scheduling. *)
            | Some (_, b) when b.throughput >= cand.throughput ->
                (failures, best)
            | Some _ | None -> (failures, Some (idx, cand))))
      ([], None) selected evaluated
  in
  let failures =
    List.sort
      (fun (i1, _) (i2, _) -> compare i1 i2)
      (!compile_failures @ sim_failures)
  in
  let skipped = List.length failures in
  let failures = List.map snd failures in
  match best with
  | Some (best_idx, best) ->
      let model_rank_of_winner =
        match Hashtbl.find_opt rank_of best_idx with
        | Some r -> r
        | None -> 0
      in
      {
        best;
        tried;
        skipped;
        failures;
        mode;
        candidates_pruned;
        model_rank_of_winner;
      }
  | None ->
      failwith
        (Printf.sprintf
           "autotune: no %s configuration of %s fits on %s (%d candidate(s) \
            failed%s)"
           (Kernel_abi.kernel_name kernel)
           mech.Chem.Mechanism.name arch.Gpusim.Arch.name skipped
           (match failures with
           | [] -> ""
           | { reason; _ } :: _ -> "; first: " ^ reason))
