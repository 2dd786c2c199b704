(* The benchmark worker: runs one workload through the layers' public
   functions and prints one JSON report line for run.py to aggregate.

     bench.exe --workload search|simulate|serve --seed N --seconds S
               [--trace FILE] [--setup-only]

   A run is: set-up (timed), measured rounds at one domain until
   [--seconds] are used, then one more round of the same inputs at two
   domains whose results must equal the measured rounds'. One domain:
   at two, the parallel phases' times and peak memory vary with how the
   machine schedules the domains, and the figures spread wider.
   With [--trace FILE] untraced and traced rounds alternate (their
   difference is the tracing overhead), an extra replay attributes time
   to single layers, and every span is written to FILE as Chrome
   trace-event JSON.

   The reported times are at reference speed: each op's wall time is
   scaled by how long a fixed calibration chunk took just before and
   just after it (see "host speed" below). *)

open Singe
module J = Sutil.Json

let now = Unix.gettimeofday
let origin = now ()

(* ---- command line ---- *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.
let trace_file = ref None
let setup_only = ref false

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " search | simulate | serve");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measuring time");
      ("--trace", Arg.String (fun f -> trace_file := Some f), " trace output");
      ("--setup-only", Arg.Set setup_only, " time set-up and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S"

(* ---- statistics ---- *)

let median l =
  match List.sort compare l with
  | [] -> 0.
  | s ->
      let a = Array.of_list s and n = List.length s in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Sorted first, so the figure does not depend on the order of [l]. *)
let geomean = function
  | [] -> 0.
  | l ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0. (List.sort compare l)
        /. float_of_int (List.length l))

(* ---- spans and layer accumulators ---- *)

type span = {
  id : int;
  name : string;
  parent : int;  (** 0: top level *)
  t0 : float;
  t1 : float;
}

let tracing = ref false
let spans : span list ref = ref []
let next_id = ref 1
let current = ref 0

(* Run [f] inside a span named after the layer call it wraps. Spans are
   recorded only from the benchmark's own domain, around calls into the
   libraries; with tracing off this is a plain call. *)
let span name f =
  if not !tracing then f ()
  else begin
    let id = !next_id and parent = !current in
    incr next_id;
    current := id;
    let t0 = now () in
    let finish () =
      spans := { id; name; parent; t0; t1 = now () } :: !spans;
      current := parent
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* ---- host speed ----

   The host's speed drifts by itself: a fixed loop takes up to twice as
   long at one moment as at another, over seconds and over hours, and
   the program's own op times move with it. A calibration chunk, a fixed
   piece of OCaml that uses no Singe code, runs between ops; an op's time
   at reference speed is its wall time times [ref_chunk_s] over the mean
   of the chunks on either side of it. A change to the program moves the
   op's wall time and not the chunks, so it shows at full size.

   The chunk is the kind of code the program is: balanced-tree inserts,
   hash-table updates and a list sort, allocating as it goes. Chunks that
   allocate nothing (pointer chases through 256 KB, 2 MB and 16 MB,
   integer and float loops) tracked the program's slow phases worse: a
   chase through 256 KB reads them too small, and one through 2 MB, the
   size of a core's L2 cache, at times far too large (perfbench/README.md
   has the figures). The minor heap is emptied before the chunk's clock
   starts, so the chunk runs the same minor collections every time. *)

let ref_chunk_s = 0.016

module Imap = Map.Make (Int)

let calibration_chunk () =
  Gc.minor ();
  let t0 = now () in
  let m = ref Imap.empty in
  for i = 0 to 15_000 do
    m := Imap.add ((i * 7919) land 65535) (float_of_int i) !m
  done;
  let h = Hashtbl.create 1024 in
  Imap.iter
    (fun k v ->
      let k = k land 1023 in
      Hashtbl.replace h k (v +. Option.value ~default:0. (Hashtbl.find_opt h k)))
    !m;
  let l = List.sort compare (List.init 15_000 (fun i -> i * 48271 mod 65521)) in
  ignore (Sys.opaque_identity (Hashtbl.length h, l));
  now () -. t0

let last_chunk = ref None

let calibrate () =
  let c = span "calibrate" calibration_chunk in
  last_chunk := Some c;
  c

(* One op's (wall ms, ms at reference speed). *)
let clocked f =
  let before = match !last_chunk with Some c -> c | None -> calibrate () in
  let t0 = now () in
  let v = f () in
  let wall = now () -. t0 in
  let after = calibrate () in
  (v, wall *. 1000., wall *. 1000. *. ref_chunk_s *. 2. /. (before +. after))

(* Per-layer figures: counters and times (ms) added by the traced rounds
   and the replay; reported per traced round. *)
let acc : (string, float) Hashtbl.t = Hashtbl.create 64

let add name v =
  Hashtbl.replace acc name (v +. Option.value ~default:0. (Hashtbl.find_opt acc name))

let get name = Option.value ~default:0. (Hashtbl.find_opt acc name)

(* Time [f] in a span and add its wall time to the layer figure [metric]
   (default [name ^ "_ms"]). *)
let timed ?metric name f =
  let metric = Option.value metric ~default:(name ^ "_ms") in
  let t0 = now () in
  let finish () = add metric ((now () -. t0) *. 1000.) in
  match span name f with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

(* ---- checks ---- *)

(* Failed checks: messages (the first 20) and the number of operations
   with at least one failed check. A check outside any operation counts
   as one failed operation of its own. *)
let failures : string list ref = ref []
let failed_ops = ref 0
let op_failed = ref false

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      if not !op_failed then begin
        op_failed := true;
        incr failed_ops
      end;
      if List.length !failures < 20 then failures := msg :: !failures)
    fmt

let begin_op () = op_failed := false

(* ---- shared configuration ---- *)

let arch = Gpusim.Arch.kepler_k20c
let dme () = Chem.Mech_gen.dme ()
let hydrogen () = Chem.Mech_gen.hydrogen ()

(* The per-kernel options the perf snapshot and serve use. *)
let base_options kernel n_warps =
  {
    (Compile.default_options arch) with
    Compile.n_warps;
    max_barriers = (if kernel = Kernel_abi.Chemistry then 16 else 8);
    ctas_per_sm_target = (if kernel = Kernel_abi.Chemistry then 1 else 2);
  }

let stencils = [ Kernel_abi.Stencil Stencil_pipe.Edge3; Kernel_abi.Stencil Stencil_pipe.Unsharp2 ]
let is_stencil = function Kernel_abi.Stencil _ -> true | _ -> false
let kname = Kernel_abi.kernel_name

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Sutil.Prng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let pick rng l = List.nth l (Sutil.Prng.int rng (List.length l))
let bits f = Printf.sprintf "%Lx" (Int64.bits_of_float f)

(* ---- the replay: compile through the pass manager, score with the
   model, attribute the time to single layers ---- *)

let pass_metric = function
  | "dfg-build" -> Some "compile.dfg_build_ms"
  | "mapping" -> Some "compile.mapping_ms"
  | "schedule" -> Some "compile.schedule_ms"
  | "lower" -> Some "compile.lower_ms"
  | "synth-exchange" -> Some "compile.synth_exchange_ms"
  | _ -> None

let add_report (report : Pass.report) =
  add "compile.calls" 1.;
  List.iter
    (fun (r : Pass.record) ->
      let ms = r.Pass.wall_ns /. 1e6 in
      (match r.Pass.kind with
      | Pass.Validate -> add "compile.validate_ms" ms
      | Pass.Transform -> (
          match pass_metric r.Pass.pass_name with
          | Some m -> add m ms
          | None -> ()));
      if r.Pass.pass_name = "lower" then
        match List.assoc_opt "instrs" r.Pass.stats with
        | Some n -> add "compile.lower_instrs" n
        | None -> ())
    report.Pass.records

let compile_report ?(validate = false) mech kernel version options =
  match
    span "compile" (fun () ->
        Compile.compile_checked ~validate mech kernel version options)
  with
  | Ok (c, report) ->
      add_report report;
      Some c
  | Error _ -> None

let predict c ~points =
  add "perf_model.calls" 1.;
  match timed "perf_model.predict" (fun () -> Perf_model.predict c ~total_points:points) with
  | p -> Some p
  | exception Gpusim.Chip.Occupancy_rejected _ ->
      add "perf_model.occupancy_rejects" 1.;
      None

(* Replay one model-only search the way Partition_search.search runs it:
   propose, compile and score every candidate, gate the model's top
   picks. Serial, so each layer's time is its own. *)
let replay_search mech kernel base ~points =
  match compile_report mech kernel Compile.Warp_specialized base with
  | None -> ()
  | Some hand ->
      let cands =
        timed "partition_search.propose" (fun () ->
            Partition_search.candidate_options base hand.Compile.dfg)
      in
      let scored =
        List.concat
          (List.mapi
             (fun i o ->
               match compile_report mech kernel Compile.Warp_specialized o with
               | None -> []
               | Some c -> (
                   add "search.lowered" 1.;
                   match predict c ~points with
                   | Some p ->
                       add "search.scored" 1.;
                       [ (p.Perf_model.cycles, i, c) ]
                   | None -> []))
             cands)
      in
      List.sort (fun (c1, i1, _) (c2, i2, _) -> compare (c1, i1) (c2, i2)) scored
      |> List.filteri (fun r _ -> r < Partition_search.default_top_k)
      |> List.iter (fun (_, _, c) ->
             ignore
               (timed "partition_search.gate" (fun () -> Partition_search.gate c));
             ignore
               (timed ~metric:"deadlock_check.ms" "deadlock_check" (fun () ->
                    Deadlock_check.check c.Compile.schedule)))

(* Simulate with the check off (sm time) and on (check cost). *)
let replay_run ?n_sms c ~points ~grid_seed =
  let r =
    timed "sm.run" (fun () ->
        Compile.run ~check:false ?n_sms ~seed:grid_seed c ~total_points:points)
  in
  ignore
    (timed ~metric:"compile.run_checked_ms" "compile.run_check" (fun () ->
         Compile.run ?n_sms ~seed:grid_seed c ~total_points:points));
  let m = r.Compile.machine in
  add "sm.instrs_issued" (float_of_int m.Gpusim.Machine.sim.Gpusim.Sm.counters.Gpusim.Sm.issued);
  add "sm.cycles" (float_of_int m.Gpusim.Machine.sm_cycles);
  let ch = m.Gpusim.Machine.chip in
  add "chip.makespan_cycles" ch.Gpusim.Chip.makespan_cycles;
  add "chip.dispatch_imbalance" (Gpusim.Chip.dispatch_imbalance ch);
  add "chip.dram_util" ch.Gpusim.Chip.contention.Gpusim.Chip.dram_util;
  add "chip.runs" 1.

(* ---- workloads ---- *)

(* One op's family and times (ms): wall and at reference speed. *)
type op = { family : string; wall_ms : float; ref_ms : float }

(* One round's outcome: its ops and the digest of every result the
   round produced. *)
type round = { ops : op list; digest : string }

type bench = {
  round : unit -> round;  (** one seeded round *)
  replay : unit -> unit;  (** trace only: per-layer attribution *)
  detail : unit -> (string * float) list;  (** workload figures *)
}

let digest_lines lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

(* search: model-only partition search, cold memo per call. Every listed
   (kernel, warps) pair is searched once per round, in seeded order and at
   a seeded search size. A search's cost grows several-fold with its warp
   count, so the warp counts are fixed (a seeded draw made the round's cost
   depend on the seed), and the round is kept short enough to repeat: DME
   viscosity is searched at 3 warps, about a third of the time at 4,
   so that a run holds several rounds and each op's median means
   something. *)
let search_bench rng =
  let dme = dme () and h = hydrogen () in
  let items =
    [ (dme, Kernel_abi.Viscosity, 3); (h, Kernel_abi.Chemistry, 4) ]
    @ List.concat_map (fun k -> List.map (fun w -> (h, k, w)) [ 2; 4; 8 ]) stencils
    |> List.filter_map (fun (mech, kernel, w) ->
           let base = base_options kernel w in
           match
             Compile.compile_checked ~validate:false mech kernel Compile.Warp_specialized base
           with
           | Ok _ -> Some (mech, kernel, base)
           | Error d ->
               fail "search: hand base %s/%d does not compile: %s" (kname kernel) w
                 (Diagnostics.to_string d);
               None)
  in
  let items =
    List.map (fun it -> (it, pick rng [ 8192; 16384; 32768 ])) (shuffle rng items)
  in
  let winners = ref [] in
  let search_one ((mech, kernel, base), points) =
    Compile.memo_clear ();
    begin_op ();
    let r, wall_ms, ref_ms =
      clocked (fun () ->
          span "partition_search.search" (fun () ->
              Partition_search.search ~points ~simulate:false mech kernel
                Compile.Warp_specialized ~base ()))
    in
    let label = Printf.sprintf "%s/%d/%d" (kname kernel) base.Compile.n_warps points in
    let line =
      match r with
      | Error d ->
          fail "search %s: %s" label (Diagnostics.to_string d);
          label ^ " error"
      | Ok o ->
          let open Partition_search in
          if o.winner_cycles > o.hand_cycles then
            fail "search %s: winner %.0f > hand %.0f cycles" label o.winner_cycles
              o.hand_cycles;
          (match
             Compile.compile_checked ~validate:false mech kernel
               Compile.Warp_specialized o.winner
           with
          | Ok (c, _) -> (
              match gate c with
              | Ok () -> ()
              | Error d -> fail "search %s: winner fails the gate: %s" label (Diagnostics.to_string d))
          | Error d -> fail "search %s: winner does not recompile: %s" label (Diagnostics.to_string d));
          winners := o.winner_cycles :: !winners;
          add "partition_search.searched" (float_of_int o.searched);
          add "partition_search.gated" (float_of_int o.gated);
          add "partition_search.rejected" (float_of_int (List.length o.rejections));
          let spec =
            match o.winner_spec with
            | None -> "hand"
            | Some s ->
                Printf.sprintf "auto %d %d %s %s" s.Mapping.producer_warps
                  s.Mapping.hub_threshold (bits s.Mapping.chain_weight)
                  (match s.Mapping.auto_strategy with
                  | Mapping.Store -> "store"
                  | Mapping.Buffer -> "buffer"
                  | Mapping.Mixed -> "mixed")
          in
          Printf.sprintf "%s %s %d %s %s %d %d %d" label spec o.winner.Compile.buffer_slots
            (bits o.winner_cycles) (bits o.hand_cycles) o.searched o.gated
            (List.length o.rejections)
    in
    ({ family = "search"; wall_ms; ref_ms }, line)
  in
  let round () =
    winners := [];
    let res = List.map search_one items in
    { ops = List.map fst res; digest = digest_lines (List.map snd res) }
  in
  {
    round;
    replay =
      (fun () ->
        Compile.memo_clear ();
        List.iter (fun ((mech, kernel, base), points) -> replay_search mech kernel base ~points) items);
    detail = (fun () -> [ ("search.winner_cycles_geomean", geomean !winners) ]);
  }

(* simulate: the perf snapshot's configurations compiled once in set-up,
   then simulated (check on) and scored over and over; plus the
   chip-scaling rows. The seed is the grid seed. *)
let simulate_bench rng =
  let grid_seed = Int64.of_int (1 + Sutil.Prng.int rng 1_000_000) in
  let mech = dme () in
  let points = 8192 in
  let configs =
    List.concat_map
      (fun kernel ->
        List.map
          (fun version -> (kernel, version, base_options kernel (if is_stencil kernel then 4 else 8)))
          [ Compile.Warp_specialized; Compile.Baseline ])
      ([ Kernel_abi.Viscosity; Kernel_abi.Conductivity; Kernel_abi.Diffusion; Kernel_abi.Chemistry ] @ stencils)
  in
  let compiled =
    List.filter_map
      (fun (kernel, version, options) ->
        match compile_report ~validate:true mech kernel version options with
        | Some c -> Some c
        | None ->
            fail "simulate: %s %s does not compile" (kname kernel) (Compile.version_name version);
            None)
      configs
  in
  let chip_c =
    Compile.compile mech Kernel_abi.Viscosity Compile.Baseline
      { (Compile.default_options arch) with Compile.n_warps = 8 }
  in
  let sm_counts = List.filter (fun n -> n <= arch.Gpusim.Arch.n_sms) [ 1; 2; 4; 8; 13 ] in
  let issued = ref 0. and run_s = ref 0. and pps = ref [] in
  let output_bits (r : Compile.run_result) =
    let b = Buffer.create 4096 in
    Array.iter (Array.iter (fun f -> Buffer.add_string b (bits f))) r.Compile.outputs;
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  let count_run t0 (r : Compile.run_result) =
    run_s := !run_s +. (now () -. t0);
    issued := !issued +. float_of_int r.Compile.machine.Gpusim.Machine.sim.Gpusim.Sm.counters.Gpusim.Sm.issued
  in
  let run_config c =
    begin_op ();
    let label = Printf.sprintf "%s %s" (kname c.Compile.kernel) (Compile.version_name c.Compile.version) in
    let (r, p), wall_ms, ref_ms =
      clocked (fun () ->
          let t0 = now () in
          let r = span "compile.run" (fun () -> Compile.run ~seed:grid_seed c ~total_points:points) in
          count_run t0 r;
          (r, span "perf_model.predict" (fun () -> Perf_model.predict c ~total_points:points)))
    in
    let m = r.Compile.machine in
    pps := m.Gpusim.Machine.points_per_sec :: !pps;
    let err = r.Compile.max_rel_err in
    if is_stencil c.Compile.kernel then (if err <> 0. then fail "simulate %s: max_rel_err %g, expected 0" label err)
    else if not (err < 1e-9) then fail "simulate %s: max_rel_err %g >= 1e-9" label err;
    ( { family = "simulate"; wall_ms; ref_ms },
      Printf.sprintf "%s %d %s %s %s" label m.Gpusim.Machine.sm_cycles
        (bits m.Gpusim.Machine.points_per_sec) (bits p.Perf_model.cycles) (output_bits r) )
  in
  (* A chip row: the SM count changes the makespan, never the per-SM
     simulation or the outputs. *)
  let chip_row n_sms =
    begin_op ();
    let r, wall_ms, ref_ms =
      clocked (fun () ->
          let t0 = now () in
          let r = span "compile.run" (fun () -> Compile.run ~check:false ~n_sms ~seed:grid_seed chip_c ~total_points:points) in
          count_run t0 r;
          r)
    in
    let m = r.Compile.machine in
    ({ family = "chip"; wall_ms; ref_ms },
     Printf.sprintf "%d %s" m.Gpusim.Machine.sm_cycles (output_bits r),
     bits m.Gpusim.Machine.chip.Gpusim.Chip.makespan_cycles)
  in
  let round () =
    pps := [];
    let cfg = List.map run_config compiled in
    let rows = List.map chip_row sm_counts in
    List.iter
      (fun (_, sim, _) ->
        match rows with
        | (_, first, _) :: _ when sim <> first -> fail "chip row differs from the 1-SM row"
        | _ -> ())
      rows;
    {
      ops = List.map fst cfg @ List.map (fun (op, _, _) -> op) rows;
      digest = digest_lines (List.map snd cfg @ List.map (fun (_, s, mk) -> s ^ " " ^ mk) rows);
    }
  in
  {
    round;
    replay =
      (fun () ->
        List.iter
          (fun c ->
            ignore (predict c ~points);
            replay_run c ~points ~grid_seed)
          compiled;
        List.iter (fun n_sms -> replay_run ~n_sms chip_c ~points ~grid_seed) sm_counts);
    detail =
      (fun () ->
        [
          ("sim.kernel_points_per_s_geomean", geomean !pps);
          ("sim.instrs_per_host_s", if !run_s > 0. then !issued /. !run_s else 0.);
        ]);
  }

(* serve: one closed-loop client on a fresh Serve state and a cold memo
   per round. Family, target and size quotas are fixed, so every seed
   costs about the same; the seed draws the order, where the hostile
   lines go, and which requests are replayed where. *)
type expect = Ok_run | Ok_any | Ok_degraded | Error_class of string | Replay

let serve_bench rng =
  let target mech kernel warps points partition =
    {
      Serve.default_target with
      Serve.t_mech = mech;
      t_kernel = kernel;
      t_warps = warps;
      t_points = points;
      t_partition = partition;
    }
  in
  (* (mech, kernel, warps, runs, predicts, compiles): skewed, so hot
     targets hit the compile memo. *)
  let population =
    [
      ("hydrogen", "viscosity", 4, 5, 3, 2); ("hydrogen", "chemistry", 4, 3, 2, 1);
      ("hydrogen", "edge3", 4, 2, 1, 1); ("dme", "viscosity", 6, 2, 1, 1);
      ("hydrogen", "diffusion", 4, 1, 1, 0); ("hydrogen", "unsharp2", 8, 1, 0, 1);
      ("dme", "diffusion", 5, 1, 0, 0); ("hydrogen", "conductivity", 4, 1, 0, 0);
      ("dme", "chemistry", 8, 1, 0, 0); ("dme", "conductivity", 6, 1, 0, 0);
    ]
  in
  (* Request sizes cycle through the list, so every hot target sees all
     sizes; a seeded start made the heavy requests' sizes, and so the
     round's cost and footprint, depend on the seed. *)
  let size = ref 0 in
  let points () =
    incr size;
    List.nth [ 2048; 4096; 8192 ] (!size mod 3)
  in
  let hand (m, k, w, runs, predicts, compiles) =
    let t () = target m k w (points ()) "hand" in
    List.init runs (fun _ -> (Serve.Run_req { target = t (); faults = []; max_cycles = None }, Ok_run, "run"))
    @ List.init predicts (fun _ -> (Serve.Predict_req (t ()), Ok_any, "predict"))
    @ List.init compiles (fun _ -> (Serve.Compile_req (t ()), Ok_any, "compile"))
  in
  let typed =
    List.concat_map hand population
    @ List.map
        (fun k -> (Serve.Tune_req { target = target "hydrogen" k 4 (points ()) "hand"; top_k = 2 }, Ok_any, "tune"))
        [ "viscosity"; "chemistry" ]
    @ List.init 2 (fun _ ->
          ( Serve.Run_req { target = target "hydrogen" "chemistry" 8 (points ()) "auto"; faults = []; max_cycles = None },
            Ok_run, "auto" ))
    @ [
        ( Serve.Run_req
            { target = target "dme" "viscosity" 6 4096 "hand"; faults = [ "drop-arrive:warp=1,nth=0" ]; max_cycles = None },
          Error_class "simulation-fault", "error" );
        ( Serve.Run_req { target = target "hydrogen" "viscosity" 4 (points ()) "hand"; faults = []; max_cycles = Some 100 },
          Ok_degraded, "error" );
      ]
  in
  (* An explicit, generous deadline on every request: the wall-overrun
     marker must not depend on the machine's speed. *)
  let lines =
    List.mapi
      (fun i (payload, expect, family) ->
        let r = { Serve.req_id = Some (Printf.sprintf "r%d" i); req_deadline_ms = Some 600_000; req = payload } in
        (Serve.request_to_json r, expect, family))
      (shuffle rng typed)
  in
  let insert_at l i x = List.filteri (fun j _ -> j < i) l @ [ x ] @ List.filteri (fun j _ -> j >= i) l in
  let lines =
    List.fold_left
      (fun l x -> insert_at l (Sutil.Prng.int rng (List.length l + 1)) x)
      lines
      [
        ({|{"kind":"run","mech":"hydrogen",|}, Error_class "bad-request", "error");
        ({|{"kind":"run","kernel":"viscosity","colour":"blue","deadline_ms":600000}|}, Error_class "bad-request", "error");
      ]
  in
  (* Two replays, each a byte-for-byte repeat of an earlier request
     carrying an id, placed after it. *)
  let lines =
    List.fold_left
      (fun l _ ->
        let n = List.length l in
        let with_id =
          List.concat
            (List.mapi
               (fun i (line, _, _) -> if String.starts_with ~prefix:{|{"id"|} line then [ (i, line) ] else [])
               l)
        in
        let i, line = pick rng with_id in
        insert_at l (i + 1 + Sutil.Prng.int rng (n - i)) (line, Replay, "replay"))
      lines [ (); () ]
  in
  let lines = Array.of_list lines in
  let expected_degraded = Array.fold_left (fun n (_, e, _) -> if e = Ok_degraded then n + 1 else n) 0 lines in
  let replays = Array.fold_left (fun n (_, e, _) -> if e = Replay then n + 1 else n) 0 lines in
  let last_stats = ref [] in
  let mask resp =
    match J.parse resp with
    | Ok (J.Obj fields) -> J.emit (J.Obj (List.filter (fun (k, _) -> k <> "overran_wall_deadline") fields))
    | _ -> resp
  in
  let check (line, expect, family) resp first =
    let str k doc = Option.bind (J.member k doc) J.str in
    let flag k doc = Option.bind (J.member k doc) J.bool in
    match J.parse resp with
    | Error e -> fail "serve %s: response does not parse: %s" family e
    | Ok doc -> (
        let status = str "status" doc and cls = str "class" doc in
        if cls = Some "internal" then fail "serve %s: internal error: %s" family resp;
        let ok () = if status <> Some "ok" then fail "serve %s: %s <- %s" family resp line in
        match expect with
        | Ok_any -> ok ()
        | Ok_run ->
            ok ();
            if flag "degraded" doc <> Some false || flag "outputs_ok" doc <> Some true then
              fail "serve %s: not an exact run: %s" family resp
        | Ok_degraded ->
            ok ();
            if flag "degraded" doc <> Some true then fail "serve: expected degraded: %s" resp
        | Error_class c ->
            if status <> Some "error" || cls <> Some c then fail "serve: expected %s: %s <- %s" c resp line
        | Replay -> if Some resp <> first then fail "serve: replay is not byte-identical: %s" line)
  in
  let session () =
    Compile.memo_clear ();
    let st = Serve.create () in
    let first = Hashtbl.create 128 in
    let ops =
      Array.map
        (fun ((line, _, family) as req) ->
          begin_op ();
          let (resp, _), wall_ms, ref_ms =
            clocked (fun () -> span ("serve." ^ family) (fun () -> Serve.handle_line st line))
          in
          (* serve validates every response it writes; time that check *)
          if !tracing then ignore (timed "serve.json_check" (fun () -> Sutil.Json_check.validate resp));
          check req resp (Hashtbl.find_opt first line);
          if not (Hashtbl.mem first line) then Hashtbl.add first line resp;
          ({ family; wall_ms; ref_ms }, mask resp))
        lines
    in
    begin_op ();
    let stats, _ = Serve.handle_line st {|{"kind":"stats"}|} in
    (match J.parse stats with
    | Ok doc ->
        let n path =
          Option.value ~default:(-1)
            (Option.bind (List.fold_left (fun d k -> Option.bind d (J.member k)) (Some doc) path) J.int)
        in
        last_stats :=
          [
            ("serve.degraded", n [ "degraded" ]);
            ("serve.wall_overruns", n [ "wall_overruns" ]);
            ("serve.id_cache_hits", n [ "id_cache"; "hits" ]);
            ("serve.json_check_failures", n [ "json_check_failures" ]);
          ];
        if n [ "json_check_failures" ] <> 0 then fail "serve: JSON self-check failures";
        if n [ "degraded" ] <> expected_degraded then fail "serve: %d degraded answers" (n [ "degraded" ]);
        if n [ "id_cache"; "hits" ] <> replays then fail "serve: %d id-cache hits" (n [ "id_cache"; "hits" ]);
        if n [ "by_class"; "internal" ] <> 0 then fail "serve: internal errors"
    | Error e -> fail "serve: stats response does not parse: %s" e);
    { ops = Array.to_list (Array.map fst ops); digest = digest_lines (Array.to_list (Array.map snd ops)) }
  in
  (* The compile, model and simulator work behind the session's distinct
     targets, one layer at a time. *)
  let replay () =
    Compile.memo_clear ();
    let seen = Hashtbl.create 16 in
    Array.iter
      (fun (line, _, _) ->
        match Serve.parse_request line with
        | Ok { Serve.req = Serve.Run_req { target = t; faults = []; max_cycles = None } | Serve.Predict_req t | Serve.Compile_req t; _ }
          when not (Hashtbl.mem seen (t.Serve.t_mech, t.Serve.t_kernel, t.Serve.t_warps, t.Serve.t_partition)) -> (
            Hashtbl.add seen (t.Serve.t_mech, t.Serve.t_kernel, t.Serve.t_warps, t.Serve.t_partition) ();
            let mech = if t.Serve.t_mech = "dme" then dme () else hydrogen () in
            let kernel = Option.get (Kernel_abi.kernel_of_string t.Serve.t_kernel) in
            let base = base_options kernel t.Serve.t_warps in
            let points = t.Serve.t_points in
            if t.Serve.t_partition = "auto" then replay_search mech kernel base ~points
            else
              match compile_report mech kernel Compile.Warp_specialized base with
              | Some c ->
                  ignore (predict c ~points);
                  replay_run c ~points ~grid_seed:1L
              | None -> ())
        | _ -> ())
      lines
  in
  { round = session; replay; detail = (fun () -> List.map (fun (k, v) -> (k, float_of_int v)) !last_stats) }

(* ---- the run ---- *)

let vm_hwm_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | s ->
      List.fold_left
        (fun acc l ->
          match Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id with
          | Some kb -> float_of_int kb /. 1024.
          | None -> acc)
        0. (String.split_on_char '\n' s)
  | exception Sys_error _ -> 0.

(* The highest percentile with at least ten samples beyond it:
   (value, percentile, samples); (0, 0, n) below eleven samples. *)
let tail l =
  let s = Array.of_list (List.sort compare l) in
  let n = Array.length s in
  if n < 11 then (0., 0., float_of_int n)
  else (s.(n - 11), 100. *. float_of_int (n - 10) /. float_of_int n, float_of_int n)

let num_obj kvs = J.Obj (List.map (fun (k, v) -> (k, J.Num v)) kvs)

(* Host spans as Chrome trace events (pid 0, microseconds since the
   process started); the simulate
   workload adds one device timeline from Gpusim.Profile (pid 1 + CTA,
   simulated cycles) so both open in one viewer. *)
let trace_events device =
  let host s =
    J.Obj
      [
        ("name", J.Str s.name); ("cat", J.Str "host"); ("ph", J.Str "X");
        ("pid", J.Num 0.); ("tid", J.Num 0.);
        ("ts", J.Num (Float.round ((s.t0 -. origin) *. 1e6)));
        ("dur", J.Num (Float.round ((s.t1 -. s.t0) *. 1e6)));
        ("args", num_obj [ ("id", float_of_int s.id); ("parent", float_of_int s.parent) ]);
      ]
  in
  let device =
    List.map
      (function
        | J.Obj fields ->
            J.Obj
              (List.map
                 (function
                   | "pid", J.Num p -> ("pid", J.Num (p +. 1.))
                   | "cat", _ -> ("cat", J.Str "device")
                   | kv -> kv)
                 fields)
        | e -> e)
      device
  in
  J.List (List.rev_map host !spans @ device)

let device_timeline () =
  let c =
    Compile.compile (dme ()) Kernel_abi.Viscosity Compile.Warp_specialized (base_options Kernel_abi.Viscosity 8)
  in
  let r = Compile.run ~check:false c ~total_points:1248 ~profile:{ Gpusim.Sm.timeline_capacity = 4096 } in
  match r.Compile.machine.Gpusim.Machine.sim.Gpusim.Sm.profile with
  | None -> []
  | Some p -> (
      match J.parse (Gpusim.Profile.to_chrome_trace p) with
      | Ok doc -> Option.value ~default:[] (Option.bind (J.member "traceEvents" doc) J.list)
      | Error _ -> [])

let () =
  (match !workload with
  | "search" | "simulate" | "serve" -> ()
  | w ->
      prerr_endline ("bench: unknown workload " ^ w);
      exit 2);
  let rng = Sutil.Prng.create (Int64.of_int !seed) in
  Sutil.Domain_pool.set_jobs 1;
  (* Set-up: mechanisms, configurations and inputs, timed between
     calibration chunks (they allocate nothing, so set-up meets the heap
     as it would without them). *)
  let chunks_before = List.init 3 (fun _ -> calibrate ()) in
  let t0 = now () in
  ignore (dme ());
  ignore (hydrogen ());
  add "chem.mech_build_ms" ((now () -. t0) *. 1000.);
  let b =
    match !workload with
    | "search" -> search_bench rng
    | "simulate" -> simulate_bench rng
    | _ -> serve_bench rng
  in
  let setup_wall_s = now () -. t0 in
  (* Set-up at reference speed: scaled by the median of the chunks on
     either side of it. *)
  let chunks = chunks_before @ List.init 3 (fun _ -> calibrate ()) in
  let setup_s = setup_wall_s *. ref_chunk_s /. median chunks in
  if !setup_only then begin
    print_endline (J.emit (num_obj [ ("setup_s", setup_s) ]));
    exit 0
  end;
  let setup_layers = Hashtbl.copy acc in
  Hashtbl.reset acc;
  (* Measured rounds: start one only while it should end within the
     time. In a traced run untraced and traced rounds alternate, so both
     kinds see the same machine conditions. *)
  let trace = !trace_file <> None in
  let memo0 = Compile.memo_stats () in
  let rounds = ref [] and start = now () and last = ref 0. in
  while
    !rounds = []
    || now () -. start +. !last <= !seconds
    || (trace && List.length !rounds < 2)
  do
    let traced = trace && List.length !rounds mod 2 = 1 in
    tracing := traced;
    let r0 = now () in
    let r = span "round" b.round in
    last := now () -. r0;
    tracing := false;
    rounds := (traced, !last, r) :: !rounds
  done;
  let rounds = List.rev !rounds in
  let memo1 = Compile.memo_stats () in
  let rss = vm_hwm_mb () in
  let digest = match rounds with (_, _, r) :: _ -> r.digest | [] -> "" in
  begin_op ();
  if List.exists (fun (_, _, r) -> r.digest <> digest) rounds then
    fail "results digest differs between rounds";
  (* A round's time (s) by [time]: its ops', without the calibration
     chunks. *)
  let round_times time traced =
    List.filter_map
      (fun (t, _, r) ->
        if t = traced then Some (List.fold_left (fun a o -> a +. time o) 0. r.ops /. 1000.) else None)
      rounds
  in
  let walls = round_times (fun o -> o.wall_ms) in
  let ops traced = List.concat_map (fun (t, _, r) -> if t = traced then r.ops else []) rounds in
  let ms = List.map (fun o -> o.wall_ms) (ops false) in
  (* Round time at reference speed, as the sum of each op's median over
     the rounds, which all run the same inputs: a burst of load from
     outside moves some samples of an op, not its median. *)
  let round_s =
    let samples = List.filter_map (fun (t, _, r) -> if t then None else Some (Array.of_list r.ops)) rounds in
    match samples with
    | [] -> 0.
    | first :: _ ->
        Array.fold_left ( +. ) 0.
          (Array.mapi (fun i _ -> median (List.map (fun a -> a.(i).ref_ms) samples)) first)
        /. 1000.
  in
  let host_speed =
    median (List.map (fun o -> o.ref_ms /. o.wall_ms) (List.filter (fun o -> o.wall_ms > 0.) (ops false)))
  in
  let tail_ms, tail_pct, samples = tail ms in
  let detail =
    b.detail ()
    @ [
        ("op.p50_ms", median ms); ("op.tail_ms", tail_ms); ("op.tail_pct", tail_pct);
        ("op.samples", samples);
        ("op.per_s", float_of_int (List.length ms) /. List.fold_left ( +. ) 0. (walls false));
        ("round.count", float_of_int (List.length (walls false)));
        ("round.wall_s", median (walls false));
        ("host.speed", host_speed);
        ("setup.wall_s", setup_wall_s);
      ]
  in
  let layers =
    match !trace_file with
    | None -> []
    | Some file ->
        (* Measured-round figures are per traced round; replay figures
           (with set-up's compiles) cover one round's inputs. *)
        let per_round = float_of_int (List.length (walls true)) in
        let n_rounds = float_of_int (List.length rounds) in
        let measured = Hashtbl.copy acc in
        Hashtbl.reset acc;
        Hashtbl.iter (Hashtbl.replace acc) setup_layers;
        tracing := true;
        span "replay" b.replay;
        let device = if !workload = "simulate" then span "profile" device_timeline else [] in
        tracing := false;
        Out_channel.with_open_text file (fun oc ->
            output_string oc
              (J.emit
                 (J.Obj
                    [
                      ("displayTimeUnit", J.Str "ms");
                      ("otherData", J.Obj [ ("workload", J.Str !workload); ("seed", J.Num (float_of_int !seed)) ]);
                      ("traceEvents", trace_events device);
                    ])));
        let fam f = median (List.filter_map (fun o -> if o.family = f then Some o.wall_ms else None) (ops true)) in
        let m k = Option.value ~default:0. (Hashtbl.find_opt measured k) in
        let ratio a b = if b > 0. then a /. b else 0. in
        let memo f = float_of_int (f memo1 - f memo0) in
        let hits = memo (fun s -> s.Compile.hits) and misses = memo (fun s -> s.Compile.misses) in
        let untraced = median (round_times (fun o -> o.ref_ms) false) in
        let figures =
        [
          ("chem.mech_build_ms", get "chem.mech_build_ms");
          ("compile.dfg_build_ms", get "compile.dfg_build_ms");
          ("compile.mapping_ms", get "compile.mapping_ms");
          ("compile.schedule_ms", get "compile.schedule_ms");
          ("compile.lower_ms", get "compile.lower_ms");
          ("compile.synth_exchange_ms", get "compile.synth_exchange_ms");
          ("compile.validate_ms", get "compile.validate_ms");
          ("compile.calls", get "compile.calls");
          ("compile.lower_instrs_mean", ratio (get "compile.lower_instrs") (get "compile.calls"));
          ("compile.memo_hits", hits /. n_rounds);
          ("compile.memo_misses", misses /. n_rounds);
          ("compile.memo_hit_ratio", ratio hits (hits +. misses));
          ("compile.memo_evictions", memo (fun s -> s.Compile.evictions) /. n_rounds);
          ("perf_model.predict_ms", get "perf_model.predict_ms");
          ("perf_model.calls", get "perf_model.calls");
          ("perf_model.occupancy_rejects", get "perf_model.occupancy_rejects");
          ("search.useful_ratio", ratio (get "search.scored") (get "search.lowered"));
          ("partition_search.propose_ms", get "partition_search.propose_ms");
          ("partition_search.gate_ms", get "partition_search.gate_ms");
          ("deadlock_check.ms", get "deadlock_check.ms");
          ("partition_search.searched", m "partition_search.searched" /. n_rounds);
          ("partition_search.gated", m "partition_search.gated" /. n_rounds);
          ("partition_search.rejected", m "partition_search.rejected" /. n_rounds);
          ("sm.run_ms", get "sm.run_ms");
          ("sm.instrs_issued", get "sm.instrs_issued");
          ("sm.cycles", get "sm.cycles");
          ("compile.run_check_ms", get "compile.run_checked_ms" -. get "sm.run_ms");
          ("chip.makespan_cycles", get "chip.makespan_cycles");
          ("chip.dispatch_imbalance", ratio (get "chip.dispatch_imbalance") (get "chip.runs"));
          ("chip.dram_util", ratio (get "chip.dram_util") (get "chip.runs"));
          ("serve.run_p50_ms", fam "run");
          ("serve.predict_p50_ms", fam "predict");
          ("serve.compile_p50_ms", fam "compile");
          ("serve.tune_p50_ms", fam "tune");
          ("serve.auto_p50_ms", fam "auto");
          ("serve.error_p50_ms", fam "error");
          ("serve.json_check_ms", m "serve.json_check_ms" /. per_round);
          ( "trace.overhead_ratio",
            ratio (median (round_times (fun o -> o.ref_ms) true) -. untraced) untraced );
        ]
        in
        (* The disjoint layer times summed: the base for a layer's share. *)
        figures
        @ [
            ( "trace.layer_ms",
              List.fold_left (fun a k -> a +. List.assoc k figures) 0.
                [
                  "chem.mech_build_ms"; "compile.dfg_build_ms"; "compile.mapping_ms";
                  "compile.schedule_ms"; "compile.lower_ms"; "compile.synth_exchange_ms";
                  "compile.validate_ms"; "perf_model.predict_ms"; "partition_search.propose_ms";
                  "partition_search.gate_ms"; "deadlock_check.ms"; "sm.run_ms";
                  "compile.run_check_ms"; "serve.json_check_ms";
                ] );
          ]
  in
  (* The same inputs at two domains must give the same results. *)
  if not trace then begin
    Sutil.Domain_pool.set_jobs 2;
    begin_op ();
    if (b.round ()).digest <> digest then fail "results digest differs between 1 and 2 domains"
  end;
  let attempted = List.length (ops false) + List.length (ops true) in
  let report =
    J.Obj
      [
        ("setup_s", J.Num setup_s);
        ("rss_mb", J.Num rss);
        ("round_s", J.Num round_s);
        ("attempted", J.Num (float_of_int attempted));
        ("failed", J.Num (float_of_int (min attempted !failed_ops)));
        ("failures", J.List (List.rev_map (fun s -> J.Str s) !failures));
        ("digest", J.Str digest);
        ("detail", num_obj detail);
        ("layers", num_obj layers);
      ]
  in
  print_endline (J.emit report)
