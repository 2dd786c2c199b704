(* Phase A of the partition search plans every candidate before lowering
   any: it rejects those whose shared-memory floor cannot fit the SM and
   compiles one representative per distinct program. These tests pin the
   search's outcomes as they were before the funnel existed, and check
   the two soundness arguments the funnel rests on over the golden
   lowering populations: the floor never exceeds the emitted footprint,
   and a mapping that never uses the transport ring compiles to the same
   program at every ring depth. *)

module C = Singe.Compile
module K = Singe.Kernel_abi
module PS = Singe.Partition_search

let kepler = Gpusim.Arch.kepler_k20c
let fermi = Gpusim.Arch.fermi_c2070
let dme = lazy (Chem.Mech_gen.dme ())
let hydrogen = Test_lower_golden.mech
let edge3 = K.Stencil Singe.Stencil_pipe.Edge3
let unsharp2 = K.Stencil Singe.Stencil_pipe.Unsharp2

let base_options arch kernel n_warps =
  { (Test_lower_golden.base_options kernel n_warps) with C.arch }

(* ---- golden search outcomes ---- *)

(* The benchmark's search targets plus a Fermi one, whose banked
   constants broadcast through the shared mirror the floor counts. *)
let search_targets =
  [
    ("dme-viscosity-ws3", dme, K.Viscosity, kepler, 3);
    ("hydrogen-chemistry-ws4", hydrogen, K.Chemistry, kepler, 4);
    ("edge3-ws2", hydrogen, edge3, kepler, 2);
    ("edge3-ws4", hydrogen, edge3, kepler, 4);
    ("edge3-ws8", hydrogen, edge3, kepler, 8);
    ("unsharp2-ws2", hydrogen, unsharp2, kepler, 2);
    ("unsharp2-ws4", hydrogen, unsharp2, kepler, 4);
    ("unsharp2-ws8", hydrogen, unsharp2, kepler, 8);
    ("hydrogen-viscosity-ws4-fermi", hydrogen, K.Viscosity, fermi, 4);
  ]

let bits f = Printf.sprintf "%Lx" (Int64.bits_of_float f)

let index_of x l =
  let rec go i = function
    | [] -> -1
    | y :: rest -> if y = x then i else go (i + 1) rest
  in
  go 0 l

(* One header row (winner, cycle bits, funnel counts), then one row per
   rejection with its candidate index and message. *)
let outcome_rows (_, mech, kernel, arch, n_warps) =
  let mech = Lazy.force mech in
  let base = base_options arch kernel n_warps in
  let hand = C.compile mech kernel C.Warp_specialized base in
  let cands = PS.candidate_options base hand.C.dfg in
  match
    PS.search ~points:8192 ~simulate:false mech kernel C.Warp_specialized
      ~base ()
  with
  | Error d -> [ "error " ^ Singe.Diagnostics.to_string d ]
  | Ok o ->
      let spec =
        match o.PS.winner_spec with
        | None -> "hand"
        | Some s -> Format.asprintf "%a" Singe.Mapping.pp_auto_spec s
      in
      Printf.sprintf "winner=%s slots=%d hand=%s winner=%s searched=%d gated=%d"
        spec o.PS.winner.C.buffer_slots (bits o.PS.hand_cycles)
        (bits o.PS.winner_cycles) o.PS.searched o.PS.gated
      :: List.map
           (fun r ->
             Printf.sprintf "reject %d: %s"
               (index_of r.PS.rej_options cands)
               (Singe.Diagnostics.to_string r.PS.rej_diag))
           o.PS.rejections

(* Recorded before Phase A planned candidates (every candidate compiled
   and scored); the funnel must reproduce them exactly. *)
let golden =
  [
    ( "dme-viscosity-ws3",
      [
        "winner=producers=1 hub>=3 chain=2.5 strategy=buffer slots=48 hand=40f2c0a255a4c558 winner=40eb119412ea83bc searched=24 gated=5";
        "reject 0: error[partition-search]: occupancy rejected: dme-viscosity-ws3 does not fit on Kepler K20c (limited by shared memory)";
        "reject 1: error[partition-search]: occupancy rejected: dme-viscosity-ws3 does not fit on Kepler K20c (limited by shared memory)";
        "reject 6: error[partition-search]: occupancy rejected: dme-viscosity-ws3 does not fit on Kepler K20c (limited by shared memory)";
        "reject 7: error[partition-search]: occupancy rejected: dme-viscosity-ws3 does not fit on Kepler K20c (limited by shared memory)";
        "reject 12: error[partition-search]: occupancy rejected: dme-viscosity-ws3 does not fit on Kepler K20c (limited by shared memory)";
        "reject 13: error[partition-search]: occupancy rejected: dme-viscosity-ws3 does not fit on Kepler K20c (limited by shared memory)";
        "reject 16: error[schedule]: viscosity: op partial_w1 needs 10 transports but the buffer ring has only 8 slots (raise buffer_slots or change the mapping strategy)";
        "reject 17: error[schedule]: viscosity: op partial_w1 needs 10 transports but the buffer ring has only 8 slots (raise buffer_slots or change the mapping strategy)";
        "reject 18: error[partition-search]: occupancy rejected: dme-viscosity-ws3 does not fit on Kepler K20c (limited by shared memory)";
        "reject 19: error[partition-search]: occupancy rejected: dme-viscosity-ws3 does not fit on Kepler K20c (limited by shared memory)";
        "reject 22: error[partition-search]: occupancy rejected: dme-viscosity-ws3 does not fit on Kepler K20c (limited by shared memory)";
        "reject 23: error[partition-search]: occupancy rejected: dme-viscosity-ws3 does not fit on Kepler K20c (limited by shared memory)";
      ] );
    ( "hydrogen-chemistry-ws4",
      [
        "winner=hand slots=48 hand=40c1050509de1d6a winner=40c1050509de1d6a searched=48 gated=5";
        "reject 0: error[partition-search]: occupancy rejected: hydrogen-chemistry-ws4 does not fit on Kepler K20c (limited by shared memory)";
        "reject 1: error[partition-search]: occupancy rejected: hydrogen-chemistry-ws4 does not fit on Kepler K20c (limited by shared memory)";
        "reject 6: error[partition-search]: occupancy rejected: hydrogen-chemistry-ws4 does not fit on Kepler K20c (limited by shared memory)";
        "reject 7: error[partition-search]: occupancy rejected: hydrogen-chemistry-ws4 does not fit on Kepler K20c (limited by shared memory)";
        "reject 12: error[partition-search]: occupancy rejected: hydrogen-chemistry-ws4 does not fit on Kepler K20c (limited by shared memory)";
        "reject 13: error[partition-search]: occupancy rejected: hydrogen-chemistry-ws4 does not fit on Kepler K20c (limited by shared memory)";
        "reject 24: error[partition-search]: occupancy rejected: hydrogen-chemistry-ws4 does not fit on Kepler K20c (limited by shared memory)";
        "reject 25: error[partition-search]: occupancy rejected: hydrogen-chemistry-ws4 does not fit on Kepler K20c (limited by shared memory)";
        "reject 30: error[partition-search]: occupancy rejected: hydrogen-chemistry-ws4 does not fit on Kepler K20c (limited by shared memory)";
        "reject 31: error[partition-search]: occupancy rejected: hydrogen-chemistry-ws4 does not fit on Kepler K20c (limited by shared memory)";
        "reject 36: error[partition-search]: occupancy rejected: hydrogen-chemistry-ws4 does not fit on Kepler K20c (limited by shared memory)";
        "reject 37: error[partition-search]: occupancy rejected: hydrogen-chemistry-ws4 does not fit on Kepler K20c (limited by shared memory)";
      ] );
    ( "edge3-ws2",
      [
        "winner=producers=1 hub>=3 chain=2.5 strategy=buffer slots=48 hand=40b0fd59c6e1218d winner=40ac07a3944ffbd4 searched=12 gated=5";
      ] );
    ( "edge3-ws4",
      [
        "winner=producers=1 hub>=3 chain=1 strategy=buffer slots=48 hand=40b298eb12bada22 winner=40ab10173c4921d9 searched=24 gated=5";
      ] );
    ( "edge3-ws8",
      [
        "winner=producers=1 hub>=3 chain=1 strategy=store slots=16 hand=40aa3878b864fc2a winner=40a8292166a920a8 searched=36 gated=5";
      ] );
    ( "unsharp2-ws2",
      [
        "winner=producers=1 hub>=3 chain=2.5 strategy=buffer slots=16 hand=40cec7934e9b206d winner=40ce3651ca27fded searched=12 gated=5";
      ] );
    ( "unsharp2-ws4",
      [
        "winner=producers=2 hub>=3 chain=1 strategy=buffer slots=16 hand=40c8bfb3da04d73c winner=40c735a05bc01a37 searched=24 gated=5";
      ] );
    ( "unsharp2-ws8",
      [
        "winner=hand slots=48 hand=40c14922da6db2c6 winner=40c14922da6db2c6 searched=36 gated=5";
      ] );
    ( "hydrogen-viscosity-ws4-fermi",
      [
        "winner=producers=1 hub>=6 chain=2.5 strategy=store slots=16 hand=40e3abc7555fecce winner=40cfafa63ab596de searched=48 gated=5";
        "reject 0: error[partition-search]: occupancy rejected: hydrogen-viscosity-ws4 does not fit on Fermi C2070 (limited by shared memory)";
        "reject 1: error[partition-search]: occupancy rejected: hydrogen-viscosity-ws4 does not fit on Fermi C2070 (limited by shared memory)";
        "reject 24: error[partition-search]: occupancy rejected: hydrogen-viscosity-ws4 does not fit on Fermi C2070 (limited by shared memory)";
        "reject 25: error[partition-search]: occupancy rejected: hydrogen-viscosity-ws4 does not fit on Fermi C2070 (limited by shared memory)";
        "reject 30: error[partition-search]: occupancy rejected: hydrogen-viscosity-ws4 does not fit on Fermi C2070 (limited by shared memory)";
        "reject 31: error[partition-search]: occupancy rejected: hydrogen-viscosity-ws4 does not fit on Fermi C2070 (limited by shared memory)";
        "reject 36: error[partition-search]: occupancy rejected: hydrogen-viscosity-ws4 does not fit on Fermi C2070 (limited by shared memory)";
        "reject 37: error[partition-search]: occupancy rejected: hydrogen-viscosity-ws4 does not fit on Fermi C2070 (limited by shared memory)";
      ] );
  ]

let check_outcome ((name, _, _, _, _) as target) () =
  let want = List.assoc name golden in
  let got = outcome_rows target in
  Alcotest.(check (list string)) name want got

(* ---- soundness of the funnel ---- *)

(* The golden lowering populations: every search candidate of its three
   Kepler targets, in candidate order, with the hand compile. *)
let populations () =
  let mech = Lazy.force hydrogen in
  List.map
    (fun (name, kernel, n_warps) ->
      let base = Test_lower_golden.base_options kernel n_warps in
      let hand = C.compile mech kernel C.Warp_specialized base in
      (name, kernel, hand, PS.candidate_options base hand.C.dfg))
    Test_lower_golden.targets

let compile_result mech kernel version o =
  match C.compile_cached mech kernel version o with
  | c -> Ok c
  | exception e -> Error (Printexc.to_string e)

let program_text (c : C.t) =
  Gpusim.Isa_text.emit c.C.lowered.Singe.Lower.program

let floor_of (c : C.t) =
  Singe.Lower.shared_floor_doubles
    (C.lower_config c.C.version c.C.options)
    c.C.dfg c.C.mapping

(* The floor leaves out the transport ring, so it must stay below the
   emitted footprint even without the ring's slots. *)
let check_floor name (c : C.t) =
  let shared = c.C.lowered.Singe.Lower.program.Gpusim.Isa.shared_doubles in
  let without_ring = shared - (c.C.schedule.Singe.Schedule.buffer_slots * 32) in
  if floor_of c > without_ring then
    Alcotest.failf "%s: floor %d doubles above the emitted %d (%d without the ring)"
      name (floor_of c) shared without_ring

(* Rebuild at another ring depth: when the mapping never uses the ring,
   the schedule and the emitted program must not change. *)
let check_depth_invariance name mech kernel version (c : C.t) ~other_depth =
  if not (Singe.Schedule.uses_ring c.C.dfg c.C.mapping) then begin
    let o = c.C.options in
    let build depth =
      Singe.Schedule.build ~buffer_slots:depth ~group_syncs:o.C.group_syncs
        ~max_barriers:o.C.max_barriers c.C.dfg c.C.mapping
    in
    if build o.C.buffer_slots <> build other_depth then
      Alcotest.failf "%s: schedule changes with the ring depth" name;
    match compile_result mech kernel version { o with C.buffer_slots = other_depth } with
    | Ok c' ->
        Alcotest.(check string)
          (name ^ ": same program at every depth")
          (program_text c) (program_text c')
    | Error e -> Alcotest.failf "%s: other depth fails: %s" name e
  end

let test_floor_and_depth_on_populations () =
  let mech = Lazy.force hydrogen in
  List.iter
    (fun (pop, kernel, _, cands) ->
      List.iteri
        (fun i o ->
          let name = Printf.sprintf "%s candidate %d" pop i in
          match compile_result mech kernel C.Warp_specialized o with
          | Ok c ->
              check_floor name c;
              check_depth_invariance name mech kernel C.Warp_specialized c
                ~other_depth:(if o.C.buffer_slots = 16 then 48 else 16)
          | Error _ -> ())
        cands)
    (populations ())

let test_floor_and_depth_when_starved () =
  let mech = Lazy.force hydrogen in
  List.iter
    (fun (name, kernel, arch, version, synth_exchange) ->
      let o =
        {
          (Test_lower_golden.base_options kernel 4) with
          C.arch;
          freg_budget = Some 12;
          synth_exchange;
        }
      in
      match compile_result mech kernel version o with
      | Ok c ->
          check_floor name c;
          if version <> C.Baseline then
            check_depth_invariance name mech kernel version c ~other_depth:16
      | Error e -> Alcotest.failf "%s does not compile: %s" name e)
    Test_lower_golden.starved

(* The plan is exact: a floor rejection is the exception the compile and
   the model would raise, and a duplicate emits its representative's
   program. *)
let test_plan_is_exact () =
  let mech = Lazy.force hydrogen in
  List.iter
    (fun (pop, kernel, hand, cands) ->
      let cands_a = Array.of_list cands in
      let compile i = compile_result mech kernel C.Warp_specialized cands_a.(i) in
      List.iteri
        (fun i plan ->
          let name = Printf.sprintf "%s candidate %d" pop i in
          match plan with
          | PS.Representative -> ()
          | PS.Duplicate_of j -> (
              match (compile i, compile j) with
              | Ok c, Ok r ->
                  Alcotest.(check string) (name ^ ": duplicate's program")
                    (program_text r) (program_text c)
              | Error a, Error b -> Alcotest.(check string) name b a
              | _ -> Alcotest.failf "%s: compiles unlike candidate %d" name j)
          | PS.Rejected e -> (
              let model =
                match compile i with
                | Error msg -> msg
                | Ok c -> (
                    match Singe.Perf_model.predict c ~total_points:8192 with
                    | _ -> "scored"
                    | exception e' -> Printexc.to_string e')
              in
              Alcotest.(check string) (name ^ ": rejection") model
                (Printexc.to_string e)))
        (PS.plan mech kernel C.Warp_specialized ~hand cands))
    (populations ())

let tests =
  List.map
    (fun ((name, _, _, _, _) as t) ->
      Alcotest.test_case ("golden search " ^ name) `Quick (check_outcome t))
    search_targets
  @ [
      Alcotest.test_case "floor and ring depth over search populations" `Quick
        test_floor_and_depth_on_populations;
      Alcotest.test_case "floor and ring depth, register-starved" `Quick
        test_floor_and_depth_when_starved;
      Alcotest.test_case "plan matches compile and model" `Quick
        test_plan_is_exact;
    ]
