(* The analytic performance model (Perf_model), the model-guided autotune
   pruning, and the diagnostics that replaced partial functions in
   lowering, expression evaluation and CHEMKIN parsing. *)

let hydrogen = Chem.Mech_gen.hydrogen
let dme = Chem.Mech_gen.dme
let arch = Gpusim.Arch.kepler_k20c

let compile mech kernel version =
  Singe.Compile.compile_cached mech kernel version
    (Singe.Compile.kernel_options arch kernel ~n_warps:8)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  go 0

let version_name = function
  | Singe.Compile.Baseline -> "base"
  | _ -> "ws"

let config_name mech kernel version =
  Printf.sprintf "%s %s %s" mech.Chem.Mechanism.name
    (Singe.Kernel_abi.kernel_name kernel)
    (version_name version)

(* Property: on every mechanism x kernel x version the simulator never
   beats either static bound — the Roofline binding ceiling (throughput)
   or Perf_model's provable floor (cycles). *)
let test_floor_and_roofline () =
  let mechs = [ hydrogen (); dme () ] in
  let kernels =
    [
      Singe.Kernel_abi.Viscosity;
      Singe.Kernel_abi.Diffusion;
      Singe.Kernel_abi.Chemistry;
    ]
  in
  let versions = [ Singe.Compile.Warp_specialized; Singe.Compile.Baseline ] in
  List.iter
    (fun mech ->
      List.iter
        (fun kernel ->
          List.iter
            (fun version ->
              let name = config_name mech kernel version in
              let c = compile mech kernel version in
              let points = 2048 in
              let pred = Singe.Perf_model.predict c ~total_points:points in
              let r = Singe.Compile.run c ~total_points:points in
              let measured =
                float_of_int r.Singe.Compile.machine.Gpusim.Machine.sm_cycles
              in
              Alcotest.(check bool)
                (Printf.sprintf "%s: simulated %.0f >= model floor %.0f" name
                   measured pred.Singe.Perf_model.floor_cycles)
                true
                (measured >= pred.Singe.Perf_model.floor_cycles /. 1.02);
              let p = c.Singe.Compile.lowered.Singe.Lower.program in
              let roof = Gpusim.Roofline.analyze arch p in
              let achieved =
                r.Singe.Compile.machine.Gpusim.Machine.points_per_sec
              in
              let ceiling =
                roof.Gpusim.Roofline.binding.Gpusim.Roofline.points_per_sec
              in
              Alcotest.(check bool)
                (Printf.sprintf "%s: achieved %.3e <= roofline %.3e" name
                   achieved ceiling)
                true
                (achieved <= ceiling *. 1.02))
            versions)
        kernels)
    mechs

(* Regression guard on the model's headline accuracy claim: predicted SM
   cycles stay within 35% of the simulator on representative configs at
   the calibration problem size. *)
let test_model_accuracy () =
  let configs =
    [
      (dme (), Singe.Kernel_abi.Viscosity, Singe.Compile.Warp_specialized);
      (dme (), Singe.Kernel_abi.Viscosity, Singe.Compile.Baseline);
      (dme (), Singe.Kernel_abi.Chemistry, Singe.Compile.Warp_specialized);
      (hydrogen (), Singe.Kernel_abi.Diffusion, Singe.Compile.Warp_specialized);
    ]
  in
  List.iter
    (fun (mech, kernel, version) ->
      let c = compile mech kernel version in
      let points = 32768 in
      let pred = Singe.Perf_model.predict c ~total_points:points in
      let r = Singe.Compile.run c ~total_points:points in
      let err =
        Singe.Perf_model.rel_err ~predicted:pred.Singe.Perf_model.cycles
          ~measured:
            (float_of_int r.Singe.Compile.machine.Gpusim.Machine.sm_cycles)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: model off by %.1f%% (limit 35%%)"
           (config_name mech kernel version)
           (100.0 *. err))
        true (err <= 0.35))
    configs

(* The model-pruned sweep must find the same winner as the exhaustive
   sweep once its keep-window covers the winner's model rank. *)
let test_pruned_matches_exhaustive () =
  let mech = hydrogen () in
  let ex =
    Singe.Autotune.tune ~jobs:2 mech Singe.Kernel_abi.Viscosity
      Singe.Compile.Warp_specialized arch
  in
  Alcotest.(check bool) "exhaustive winner is model-ranked" true
    (ex.Singe.Autotune.model_rank_of_winner >= 1);
  Alcotest.(check int) "exhaustive prunes nothing" 0
    ex.Singe.Autotune.candidates_pruned;
  let keep = max 2 ex.Singe.Autotune.model_rank_of_winner in
  let pr =
    Singe.Autotune.tune ~jobs:2 ~mode:(Singe.Autotune.Pruned keep) mech
      Singe.Kernel_abi.Viscosity Singe.Compile.Warp_specialized arch
  in
  Alcotest.(check bool) "same winner options" true
    (pr.Singe.Autotune.best.Singe.Autotune.options
    = ex.Singe.Autotune.best.Singe.Autotune.options);
  Alcotest.(check bool) "same winner throughput" true
    (pr.Singe.Autotune.best.Singe.Autotune.throughput
    = ex.Singe.Autotune.best.Singe.Autotune.throughput);
  Alcotest.(check int) "same grid" ex.Singe.Autotune.tried
    pr.Singe.Autotune.tried;
  (match pr.Singe.Autotune.mode with
  | Singe.Autotune.Pruned k -> Alcotest.(check int) "mode recorded" keep k
  | Singe.Autotune.Exhaustive -> Alcotest.fail "pruned sweep reported exhaustive");
  let compilable = ex.Singe.Autotune.tried - ex.Singe.Autotune.skipped in
  if compilable > keep then
    Alcotest.(check bool) "pruning actually excluded candidates" true
      (pr.Singe.Autotune.candidates_pruned > 0)

(* The sweep's winner (and its pinned lowest-index tie-break) must not
   depend on how many domains evaluate the grid. *)
let test_tune_jobs_deterministic () =
  let mech = hydrogen () in
  let run jobs =
    Singe.Autotune.tune ~jobs mech Singe.Kernel_abi.Viscosity
      Singe.Compile.Warp_specialized arch
  in
  let a = run 1 and b = run 4 in
  Alcotest.(check bool) "same winner options" true
    (a.Singe.Autotune.best.Singe.Autotune.options
    = b.Singe.Autotune.best.Singe.Autotune.options);
  Alcotest.(check bool) "same winner throughput" true
    (a.Singe.Autotune.best.Singe.Autotune.throughput
    = b.Singe.Autotune.best.Singe.Autotune.throughput);
  Alcotest.(check int) "same tried" a.Singe.Autotune.tried
    b.Singe.Autotune.tried;
  Alcotest.(check int) "same skipped" a.Singe.Autotune.skipped
    b.Singe.Autotune.skipped;
  Alcotest.(check int) "same model rank" a.Singe.Autotune.model_rank_of_winner
    b.Singe.Autotune.model_rank_of_winner

(* Seeded mutation: injecting a send of a value no warp ever produces must
   surface as a positioned lowering diagnostic, not a Not_found crash. *)
let test_lower_unproduced_value () =
  let mech = hydrogen () in
  let dfg = Singe.Viscosity_dfg.build mech ~n_warps:2 in
  let m =
    Singe.Mapping.map dfg ~n_warps:2 ~weights:Singe.Mapping.default_weights
      ~strategy:Singe.Mapping.Store ~respect_hints:true
  in
  let s = Singe.Schedule.build dfg m in
  let mutate value =
    let per_warp = Array.map Array.copy s.Singe.Schedule.per_warp in
    let stamps = Array.map Array.copy s.Singe.Schedule.stamps in
    per_warp.(0) <-
      Array.append [| Singe.Schedule.A_send { value; slot = 0 } |] per_warp.(0);
    stamps.(0) <- Array.append [| -1 |] stamps.(0);
    { s with Singe.Schedule.per_warp; stamps }
  in
  let cfg =
    {
      Singe.Lower.arch;
      overlay = true;
      const_policy = Singe.Lower.Bank;
      exp_consts_in_registers = false;
      param_stripe_threshold = 8;
      freg_budget = 60;
      synth_exchange = false;
      list_schedule = true;
    }
  in
  let groups = Singe.Kernel_abi.groups mech Singe.Kernel_abi.Viscosity in
  let lower_mutated value =
    Singe.Lower.lower cfg ~name:"mutated" ~point_map:Gpusim.Isa.Coop
      ~out_warps:2 ~groups dfg m (mutate value)
  in
  (* a value id outside the graph entirely *)
  (match lower_mutated 987_654_321 with
  | _ -> Alcotest.fail "lowering accepted a send of an out-of-range value"
  | exception Singe.Diagnostics.Fail d ->
      Alcotest.(check (option string))
        "diagnostic names the pass" (Some "lower") d.Singe.Diagnostics.pass;
      Alcotest.(check bool) "diagnostic names the value" true
        (contains d.Singe.Diagnostics.message "987654321"));
  (* a real register-placed value no warp has produced yet at stream start *)
  let unproduced = ref (-1) in
  Array.iteri
    (fun v place ->
      if !unproduced < 0 && place = Singe.Mapping.P_reg then unproduced := v)
    m.Singe.Mapping.value_place;
  Alcotest.(check bool) "found a register-placed value" true (!unproduced >= 0);
  match lower_mutated !unproduced with
  | _ -> Alcotest.fail "lowering accepted a send of a never-produced value"
  | exception Singe.Diagnostics.Fail d ->
      Alcotest.(check (option string))
        "diagnostic names the pass" (Some "lower") d.Singe.Diagnostics.pass;
      Alcotest.(check bool) "diagnostic names the warp" true
        (contains d.Singe.Diagnostics.message "warp 0");
      Alcotest.(check bool) "diagnostic explains the cause" true
        (contains d.Singe.Diagnostics.message "no register copy")

(* An out-of-scope Var in an s-expression is a diagnostic, not a List.nth
   failure; bound vars still evaluate. *)
let test_sexpr_var_diagnostic () =
  (match
     Singe.Sexpr.eval (Singe.Sexpr.Var 0) ~consts:[||] ~input:(fun _ -> 0.0)
   with
  | _ -> Alcotest.fail "evaluated an unbound Var"
  | exception Singe.Diagnostics.Fail d ->
      Alcotest.(check (option string))
        "diagnostic names the pass" (Some "sexpr-eval")
        d.Singe.Diagnostics.pass);
  let v =
    Singe.Sexpr.(eval (Let (Imm 2.0, Var 0))) ~consts:[||]
      ~input:(fun _ -> 0.0)
  in
  Alcotest.(check (float 0.0)) "bound var evaluates" 2.0 v

(* A stoichiometric coefficient too large for an int is a positioned
   parse error (file/line/token), not an int_of_string exception. *)
let test_chemkin_coeff_overflow () =
  let text = "REACTIONS\n99999999999999999999h2 = h2 1.0 0.0 0.0\nEND" in
  match Chem.Chemkin_parser.parse text with
  | Ok _ -> Alcotest.fail "accepted an overflowing stoichiometric coefficient"
  | Error e ->
      Alcotest.(check bool) "message names the coefficient" true
        (contains e.Chem.Srcloc.msg "coefficient");
      Alcotest.(check int) "positioned at line 2" 2
        e.Chem.Srcloc.loc.Chem.Srcloc.line;
      Alcotest.(check (option string))
        "offending token isolated"
        (Some "99999999999999999999")
        e.Chem.Srcloc.loc.Chem.Srcloc.token

let tests =
  [
    Alcotest.test_case "sim never beats floor or roofline" `Quick
      test_floor_and_roofline;
    Alcotest.test_case "model accuracy within 35%" `Quick test_model_accuracy;
    Alcotest.test_case "pruned sweep finds exhaustive winner" `Quick
      test_pruned_matches_exhaustive;
    Alcotest.test_case "tune deterministic across jobs" `Quick
      test_tune_jobs_deterministic;
    Alcotest.test_case "lower rejects unproduced value" `Quick
      test_lower_unproduced_value;
    Alcotest.test_case "sexpr unbound var diagnostic" `Quick
      test_sexpr_var_diagnostic;
    Alcotest.test_case "chemkin coefficient overflow positioned" `Quick
      test_chemkin_coeff_overflow;
  ]
