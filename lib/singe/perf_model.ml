module A = Gpusim.Arch
module I = Gpusim.Isa
module T = Gpusim.Trace
module M = Gpusim.Machine
module C = Gpusim.Chip

(* Calibration constants. Structure comes from the machine model (pipe
   rates, latencies, cache geometry); these scalars absorb what a static
   walk cannot know — how much dependence latency the lowered code's ILP
   and the warp scheduler actually hide. Calibrated once against the
   simulator on the shipped kernels (DESIGN §12 records the measured
   accuracy); they are not per-kernel knobs. To recalibrate after a
   simulator change, edit a constant here and re-run
   `singe predict --check`. *)

(* Exposed constant-cache fill latency per constant-operand instruction
   once the working set thrashes the 8 KB cache: most accesses then miss,
   but adjacent slots share lines and followers ride in-flight fills, so
   only a fraction of a full trip is exposed per access (the profiler
   measures 30-65 cycles against a 440-cycle fill on the shipped
   mechanisms). *)
let ccache_exposure = 0.15

(* Cold-start fills, paid once per CTA on its first batch: every warp
   marches through the same line sequence together, so each stalls for
   roughly every fill it touches (followers wait on in-flight lines). *)
let ccache_cold = 0.5
let icache_cold = 1.0

(* How much of the smaller of the throughput/critical-path terms still
   shows when the other binds: pipes drain while warps sit at barriers,
   so a latency-bound batch hides most (not all) of its pipe work; a
   throughput-bound batch hides none of its per-warp stalls (all warps
   stall together between their turns at the saturated pipe). *)
let sync_overlap = 0.3

(* Fraction of code-refetch fill time that lands on the critical path
   (fills overlap with other warps' execution). *)
let icache_exposure = 0.5

(* Cross-CTA dilution of memory-path contention. Warps of one CTA march
   through their load phases in lockstep and genuinely collide on the
   path, but co-resident CTAs drift apart (staggered launch, divergent
   stalls), so only part of their traffic lands in the same window. The
   original model charged the full pack ([resident * users / 2]), which
   was invisible while every shipped kernel ran at 1-2 resident CTAs;
   the stencil pipelines occupy 4 and exposed the overestimate. *)
let cross_cta_overlap = 0.5

(* A divergent region longer than this many instructions occupies its own
   prefetch stream (two cache lines of run-ahead no longer cover it). *)
let long_path_instrs = 128

type prediction = {
  occ : M.occupancy;
  resident : int;
  batches : int;
  sim_batches : int;
  prologue_cycles : float;
  batch_cycles : float;
  throughput_cycles : float;
  sync_cycles : float;
  icache_cycles : float;
  binding : string;
  cycles : float;
  floor_cycles : float;
  chip : C.schedule;
  time_s : float;
  points_per_sec : float;
}

(* Accumulated cost of a run of instructions between barrier operations —
   also used (summed over every warp) as the per-batch resource demand. *)
type seg = {
  mutable instrs : float;  (* issue slots; also the warp's 1-IPC floor *)
  mutable dp : float;  (* DP slots, constant-operand penalty applied *)
  mutable alu : float;
  mutable lsu : float;
  mutable shared : float;  (* shared-pipe slots *)
  mutable chain : float;  (* arith+shared dependence latency, serial sum *)
  mutable loads : int;  (* global-latency loads (global/local/const/param) *)
  mutable n_const : int;  (* instructions with constant-memory operands *)
  mutable tex_b : float;
  mutable glob_b : float;
  mutable loc_b : float;
}

let seg_zero () =
  {
    instrs = 0.0;
    dp = 0.0;
    alu = 0.0;
    lsu = 0.0;
    shared = 0.0;
    chain = 0.0;
    loads = 0;
    n_const = 0;
    tex_b = 0.0;
    glob_b = 0.0;
    loc_b = 0.0;
  }

let seg_reset s =
  s.instrs <- 0.0;
  s.dp <- 0.0;
  s.alu <- 0.0;
  s.lsu <- 0.0;
  s.shared <- 0.0;
  s.chain <- 0.0;
  s.loads <- 0;
  s.n_const <- 0;
  s.tex_b <- 0.0;
  s.glob_b <- 0.0;
  s.loc_b <- 0.0

let seg_add_into ~(dst : seg) (s : seg) =
  dst.instrs <- dst.instrs +. s.instrs;
  dst.dp <- dst.dp +. s.dp;
  dst.alu <- dst.alu +. s.alu;
  dst.lsu <- dst.lsu +. s.lsu;
  dst.shared <- dst.shared +. s.shared;
  dst.chain <- dst.chain +. s.chain;
  dst.loads <- dst.loads + s.loads;
  dst.n_const <- dst.n_const + s.n_const;
  dst.tex_b <- dst.tex_b +. s.tex_b;
  dst.glob_b <- dst.glob_b +. s.glob_b;
  dst.loc_b <- dst.loc_b +. s.loc_b

let active_lanes = function
  | None -> 32
  | Some (I.Lane_eq _) -> 1
  | Some (I.Lane_lt n) -> n

(* Mirror the simulator's issue-path charging for one trace entry
   (pipe slots, result latencies, bytes on each memory path). *)
let charge (arch : A.t) (p : I.program) (s : seg) (e : T.entry) =
  s.instrs <- s.instrs +. 1.0;
  if e.T.has_const then s.n_const <- s.n_const + 1;
  match e.T.instr with
  | None -> s.alu <- s.alu +. 1.0 (* synthetic warp-id branch *)
  | Some instr -> (
      match instr with
      | I.Arith { op; _ } ->
          let penalty =
            if
              e.T.has_const
              || ((op = I.Exp || op = I.Log)
                 && not p.I.exp_consts_in_registers)
            then arch.A.const_operand_penalty
            else 1.0
          in
          s.dp <- s.dp +. (e.T.dp_slots *. penalty);
          s.chain <-
            s.chain +. float_of_int (arch.A.arith_latency * e.T.lat_mult);
          let n_shared = Array.length e.T.shared_srcs in
          if n_shared > 0 then begin
            if not arch.A.shared_operand_collector then
              s.shared <- s.shared +. float_of_int n_shared;
            s.chain <- s.chain +. float_of_int arch.A.shared_latency
          end
      | I.Mov { src; _ } ->
          s.alu <- s.alu +. 1.0;
          s.chain <- s.chain +. float_of_int arch.A.arith_latency;
          if match src with I.Sshared _ -> true | _ -> false then begin
            s.shared <- s.shared +. 1.0;
            s.chain <- s.chain +. float_of_int arch.A.shared_latency
          end
      | I.Ld_global { via_tex; _ } ->
          s.lsu <- s.lsu +. 1.0;
          s.loads <- s.loads + 1;
          let bytes = 8.0 *. 32.0 in
          if via_tex && arch.A.has_ldg then s.tex_b <- s.tex_b +. bytes
          else s.glob_b <- s.glob_b +. bytes
      | I.St_global { pred; _ } ->
          s.lsu <- s.lsu +. 1.0;
          s.glob_b <- s.glob_b +. (8.0 *. float_of_int (active_lanes pred))
      | I.Ld_shared _ ->
          s.lsu <- s.lsu +. 1.0;
          s.shared <- s.shared +. 1.0;
          s.chain <- s.chain +. float_of_int arch.A.shared_latency
      | I.St_shared _ ->
          s.lsu <- s.lsu +. 1.0;
          s.shared <- s.shared +. 1.0
      | I.Ld_local _ ->
          s.lsu <- s.lsu +. 1.0;
          s.loads <- s.loads + 1;
          s.loc_b <- s.loc_b +. (8.0 *. 32.0)
      | I.St_local _ ->
          s.lsu <- s.lsu +. 1.0;
          s.loc_b <- s.loc_b +. (8.0 *. 32.0)
      | I.Ld_const_bank _ ->
          s.lsu <- s.lsu +. 1.0;
          s.loads <- s.loads + 1;
          let bytes = 8.0 *. 32.0 in
          if arch.A.has_ldg then s.tex_b <- s.tex_b +. bytes
          else s.glob_b <- s.glob_b +. bytes
      | I.Ld_param _ ->
          s.lsu <- s.lsu +. 1.0;
          s.loads <- s.loads + 1;
          let bytes = 4.0 *. 32.0 in
          if arch.A.has_ldg then s.tex_b <- s.tex_b +. bytes
          else s.glob_b <- s.glob_b +. bytes
      | I.Shfl _ | I.Shfl_rot _ | I.Shfl_bfly _ ->
          s.alu <- s.alu +. 2.0;
          s.chain <- s.chain +. float_of_int arch.A.arith_latency
      | I.Ishfl _ ->
          s.alu <- s.alu +. 1.0;
          s.chain <- s.chain +. float_of_int arch.A.arith_latency
      | I.Bar_arrive _ | I.Bar_sync _ | I.Bar_cta -> s.alu <- s.alu +. 1.0)

(* Per-warp abstract scoreboard: the simulator's in-order issue
   discipline (issue at [max(prev + 1, operands ready, own pipe free)])
   with the warp's own pipe serialization, dependence latencies, and
   memory-path backlog — but no cross-warp contention, which is the
   throughput term's job. This is what turns the lowered code's actual
   ILP into exposed stall cycles instead of guessing an exposure
   scalar. *)
type walk = {
  freg : float array;  (* result-ready time per double register *)
  ireg : float array;
  mutable clk : float;  (* this warp's issue clock *)
  mutable dp_free : float;  (* own next-issue time per pipe *)
  mutable alu_free : float;
  mutable lsu_free : float;
  mutable sh_free : float;
  mutable tex_drain : float;  (* own backlog per memory path *)
  mutable glob_drain : float;
  mutable loc_drain : float;
}

let walk_make (p : I.program) =
  {
    freg = Array.make (max 1 p.I.n_fregs) 0.0;
    ireg = Array.make (max 1 p.I.n_iregs) 0.0;
    clk = 0.0;
    dp_free = 0.0;
    alu_free = 0.0;
    lsu_free = 0.0;
    sh_free = 0.0;
    tex_drain = 0.0;
    glob_drain = 0.0;
    loc_drain = 0.0;
  }

(* Average queueing pressure a warp sees on a shared memory path: with S
   co-resident warps feeding the path, a load's backlog is on average
   half the pack's concurrent transfers. *)
type path_mult = { tex_m : float; glob_m : float; loc_m : float }

let walk_step (arch : A.t) (p : I.program) ~ccache_thrash ~(pm : path_mult)
    (wk : walk) (e : T.entry) =
  let ready = ref 0.0 in
  Array.iter
    (function
      | I.Sreg r -> if wk.freg.(r) > !ready then ready := wk.freg.(r)
      | I.Sshared { I.s_ireg = Some r; _ } ->
          if wk.ireg.(r) > !ready then ready := wk.ireg.(r)
      | I.Sshared _ | I.Simm _ | I.Sconst _ | I.Sconst_warp _ -> ())
    e.T.srcs;
  wk.clk <- Float.max (wk.clk +. 1.0) !ready;
  if ccache_thrash && e.T.has_const then
    wk.clk <-
      wk.clk +. (ccache_exposure *. float_of_int arch.A.global_latency);
  (* Pipe gate mirrors [pipe_free]: issue once the pipe's backlog is
     under a cycle, then deepen it by the op's slots. *)
  let gate free slots rate =
    wk.clk <- Float.max wk.clk (free -. 1.0);
    wk.clk +. (slots /. rate)
  in
  let path_done get set bytes rate =
    let transfer = bytes /. rate in
    let start = Float.max (get ()) wk.clk in
    set (start +. transfer);
    start +. transfer -. wk.clk
  in
  let tex_rate = arch.A.tex_bytes_per_cycle /. pm.tex_m in
  let glob_rate = arch.A.global_bytes_per_cycle /. pm.glob_m in
  let loc_rate = arch.A.local_bytes_per_cycle /. pm.loc_m in
  let lat = float_of_int arch.A.global_latency in
  match e.T.instr with
  | None -> wk.alu_free <- gate wk.alu_free 1.0 arch.A.alu_issue_per_cycle
  | Some instr -> (
      match instr with
      | I.Arith { op; dst; _ } ->
          let penalty =
            if
              e.T.has_const
              || ((op = I.Exp || op = I.Log)
                 && not p.I.exp_consts_in_registers)
            then arch.A.const_operand_penalty
            else 1.0
          in
          wk.dp_free <-
            gate wk.dp_free
              (e.T.dp_slots *. penalty)
              arch.A.dp_issue_per_cycle;
          let n_shared = Array.length e.T.shared_srcs in
          let extra =
            if n_shared > 0 then begin
              if not arch.A.shared_operand_collector then
                wk.sh_free <-
                  gate wk.sh_free (float_of_int n_shared)
                    arch.A.shared_issue_per_cycle;
              float_of_int arch.A.shared_latency
            end
            else 0.0
          in
          wk.freg.(dst) <-
            wk.clk
            +. float_of_int (arch.A.arith_latency * e.T.lat_mult)
            +. extra
      | I.Mov { dst; src; _ } ->
          wk.alu_free <- gate wk.alu_free 1.0 arch.A.alu_issue_per_cycle;
          let extra =
            match src with
            | I.Sshared _ ->
                wk.sh_free <-
                  gate wk.sh_free 1.0 arch.A.shared_issue_per_cycle;
                float_of_int arch.A.shared_latency
            | _ -> 0.0
          in
          wk.freg.(dst) <-
            wk.clk +. float_of_int arch.A.arith_latency +. extra
      | I.Ld_global { dst; via_tex; _ } ->
          wk.lsu_free <- gate wk.lsu_free 1.0 1.0;
          let done_in =
            if via_tex && arch.A.has_ldg then
              path_done
                (fun () -> wk.tex_drain)
                (fun v -> wk.tex_drain <- v)
                256.0 tex_rate
            else
              path_done
                (fun () -> wk.glob_drain)
                (fun v -> wk.glob_drain <- v)
                256.0 glob_rate
          in
          wk.freg.(dst) <- wk.clk +. lat +. done_in
      | I.St_global { pred; _ } ->
          wk.lsu_free <- gate wk.lsu_free 1.0 1.0;
          ignore
            (path_done
               (fun () -> wk.glob_drain)
               (fun v -> wk.glob_drain <- v)
               (8.0 *. float_of_int (active_lanes pred))
               glob_rate)
      | I.Ld_shared { dst; _ } ->
          wk.lsu_free <- gate wk.lsu_free 1.0 1.0;
          wk.sh_free <- gate wk.sh_free 1.0 arch.A.shared_issue_per_cycle;
          wk.freg.(dst) <- wk.clk +. float_of_int arch.A.shared_latency
      | I.St_shared _ ->
          wk.lsu_free <- gate wk.lsu_free 1.0 1.0;
          wk.sh_free <- gate wk.sh_free 1.0 arch.A.shared_issue_per_cycle
      | I.Ld_local { dst; _ } ->
          wk.lsu_free <- gate wk.lsu_free 1.0 1.0;
          let done_in =
            path_done
              (fun () -> wk.loc_drain)
              (fun v -> wk.loc_drain <- v)
              256.0 loc_rate
          in
          wk.freg.(dst) <- wk.clk +. lat +. done_in
      | I.St_local _ ->
          wk.lsu_free <- gate wk.lsu_free 1.0 1.0;
          ignore
            (path_done
               (fun () -> wk.loc_drain)
               (fun v -> wk.loc_drain <- v)
               256.0 loc_rate)
      | I.Ld_const_bank { dst; _ } ->
          wk.lsu_free <- gate wk.lsu_free 1.0 1.0;
          let done_in =
            if arch.A.has_ldg then
              path_done
                (fun () -> wk.tex_drain)
                (fun v -> wk.tex_drain <- v)
                256.0 tex_rate
            else
              path_done
                (fun () -> wk.glob_drain)
                (fun v -> wk.glob_drain <- v)
                256.0 glob_rate
          in
          wk.freg.(dst) <- wk.clk +. lat +. done_in
      | I.Ld_param { dst_i; _ } ->
          wk.lsu_free <- gate wk.lsu_free 1.0 1.0;
          let done_in =
            if arch.A.has_ldg then
              path_done
                (fun () -> wk.tex_drain)
                (fun v -> wk.tex_drain <- v)
                128.0 tex_rate
            else
              path_done
                (fun () -> wk.glob_drain)
                (fun v -> wk.glob_drain <- v)
                128.0 glob_rate
          in
          wk.ireg.(dst_i) <- wk.clk +. lat +. done_in
      | I.Shfl { dst; _ } | I.Shfl_rot { dst; _ } | I.Shfl_bfly { dst; _ } ->
          wk.alu_free <- gate wk.alu_free 2.0 arch.A.alu_issue_per_cycle;
          wk.freg.(dst) <- wk.clk +. float_of_int arch.A.arith_latency
      | I.Ishfl { dst_i; _ } ->
          wk.alu_free <- gate wk.alu_free 1.0 arch.A.alu_issue_per_cycle;
          wk.ireg.(dst_i) <- wk.clk +. float_of_int arch.A.arith_latency
      | I.Bar_arrive _ | I.Bar_sync _ | I.Bar_cta ->
          wk.alu_free <- gate wk.alu_free 1.0 arch.A.alu_issue_per_cycle)

(* One warp's stream, segmented at barrier operations. *)
type item = Cost of float | Arrive of int * int | Syncb of int * int | Cta

let items_of (arch : A.t) (p : I.program) ~ccache_thrash ~(pm : path_mult)
    ~(agg : seg) (tr : T.t) ids =
  let items = ref [] in
  let s = seg_zero () in
  let wk = walk_make p in
  let seg_start = ref 0.0 in
  let flush () =
    if s.instrs > 0.0 then begin
      seg_add_into ~dst:agg s;
      items := Cost (wk.clk -. !seg_start) :: !items;
      seg_reset s
    end;
    seg_start := wk.clk
  in
  Array.iter
    (fun id ->
      let e = tr.T.entries.(id) in
      charge arch p s e;
      walk_step arch p ~ccache_thrash ~pm wk e;
      match e.T.instr with
      | Some (I.Bar_arrive { bar; count }) ->
          flush ();
          items := Arrive (bar, count) :: !items
      | Some (I.Bar_sync { bar; count }) ->
          flush ();
          items := Syncb (bar, count) :: !items
      | Some I.Bar_cta ->
          flush ();
          items := Cta :: !items
      | _ -> ())
    ids;
  flush ();
  Array.of_list (List.rev !items)

(* Abstract rendezvous execution: every warp accumulates its segment
   costs; named and CTA barriers propagate the latest arrival time to
   their waiters (the simulator's barrier semantics, without cycles).
   Warps left blocked at the end (their producer's arrival lies beyond
   the walked batches) simply keep their arrival time. Returns the
   per-warp finish times. *)
let rendezvous n_warps (streams : item array array) =
  let t = Array.make n_warps 0.0 in
  let pos = Array.make n_warps 0 in
  let blocked = Array.make n_warps false in
  let nbars = 17 in
  let bar_arrived = Array.make nbars 0 in
  let bar_time = Array.make nbars 0.0 in
  let bar_waiters = Array.make nbars [] in
  let cta_arrived = ref 0 in
  let cta_time = ref 0.0 in
  let cta_waiters = ref [] in
  let release waiters tm =
    List.iter
      (fun ww ->
        t.(ww) <- Float.max t.(ww) tm;
        blocked.(ww) <- false)
      waiters
  in
  let progress = ref true in
  while !progress do
    progress := false;
    for w = 0 to n_warps - 1 do
      while (not blocked.(w)) && pos.(w) < Array.length streams.(w) do
        progress := true;
        (match streams.(w).(pos.(w)) with
        | Cost c -> t.(w) <- t.(w) +. c
        | Arrive (b, count) ->
            bar_time.(b) <- Float.max bar_time.(b) t.(w);
            bar_arrived.(b) <- bar_arrived.(b) + 1;
            if bar_arrived.(b) >= count then begin
              bar_arrived.(b) <- bar_arrived.(b) - count;
              release bar_waiters.(b) bar_time.(b);
              bar_waiters.(b) <- [];
              bar_time.(b) <- 0.0
            end
        | Syncb (b, count) ->
            bar_time.(b) <- Float.max bar_time.(b) t.(w);
            bar_arrived.(b) <- bar_arrived.(b) + 1;
            if bar_arrived.(b) >= count then begin
              bar_arrived.(b) <- bar_arrived.(b) - count;
              t.(w) <- Float.max t.(w) bar_time.(b);
              release bar_waiters.(b) bar_time.(b);
              bar_waiters.(b) <- [];
              bar_time.(b) <- 0.0
            end
            else begin
              blocked.(w) <- true;
              bar_waiters.(b) <- w :: bar_waiters.(b)
            end
        | Cta ->
            cta_time := Float.max !cta_time t.(w);
            incr cta_arrived;
            if !cta_arrived >= n_warps then begin
              cta_arrived := 0;
              t.(w) <- Float.max t.(w) !cta_time;
              release !cta_waiters !cta_time;
              cta_waiters := [];
              cta_time := 0.0
            end
            else begin
              blocked.(w) <- true;
              cta_waiters := w :: !cta_waiters
            end);
        pos.(w) <- pos.(w) + 1
      done
    done
  done;
  Array.fold_left Float.max 0.0 t

let repeat_streams k streams =
  Array.map
    (fun (s : item array) -> Array.concat (List.init k (fun _ -> s)))
    streams

(* Per-CTA-batch demand over the shared pipes and paths, as SM cycles;
   the largest entry is the throughput floor on a batch. *)
let demand_terms (arch : A.t) (s : seg) =
  [
    ("warp-instruction issue", s.instrs /. float_of_int arch.A.schedulers);
    ("DP pipe", s.dp /. arch.A.dp_issue_per_cycle);
    ("integer/branch pipe", s.alu /. arch.A.alu_issue_per_cycle);
    ("LSU issue", s.lsu);
    ("shared-memory pipe", s.shared /. arch.A.shared_issue_per_cycle);
    ("texture path", s.tex_b /. arch.A.tex_bytes_per_cycle);
    ("global-memory path", s.glob_b /. arch.A.global_bytes_per_cycle);
    ("local-memory (spill) path", s.loc_b /. arch.A.local_bytes_per_cycle);
  ]

let max_term terms =
  List.fold_left
    (fun (bn, bv) (n, v) -> if v > bv then (n, v) else (bn, bv))
    ("none", 0.0) terms

(* Divergent regions long enough to need their own prefetch stream. *)
let rec long_paths (b : I.block) =
  match b with
  | I.Instrs _ -> 0
  | I.Seq bs -> List.fold_left (fun acc b -> acc + long_paths b) 0 bs
  | I.If_warps { body; _ } ->
      (if I.static_instr_count body > long_path_instrs then 1 else 0)
      + long_paths body
  | I.Switch_warp arms ->
      Array.fold_left
        (fun acc arm ->
          acc
          + (if I.static_instr_count arm > long_path_instrs then 1 else 0)
          + long_paths arm)
        0 arms

let distinct_lines (arch : A.t) (tr : T.t) (per_warp : int array array) =
  let lines = Hashtbl.create 256 in
  let line_bytes = A.icache_line_bytes arch in
  Array.iter
    (Array.iter (fun id ->
         let line = tr.T.entries.(id).T.addr / line_bytes in
         if not (Hashtbl.mem lines line) then Hashtbl.add lines line ()))
    per_warp;
  Hashtbl.length lines

(* Does the body's constant-memory working set fit the 8 KB constant
   cache? When it doesn't, the LRU array thrashes and every
   constant-operand instruction re-misses each batch — the per-warp
   stalls {!seg_cost} then charges. Line footprint is counted over the
   body entries of every warp ([Sconst_warp] operands touch one slot per
   warp id). *)
let ccache_thrashes (arch : A.t) (p : I.program) (tr : T.t) =
  let slots_per_line = arch.A.const_line_bytes / 8 in
  let lines = Hashtbl.create 64 in
  let add_slot slot =
    let line = slot / slots_per_line in
    if not (Hashtbl.mem lines line) then Hashtbl.add lines line ()
  in
  let seen = Hashtbl.create 256 in
  Array.iter
    (Array.iter (fun id ->
         if not (Hashtbl.mem seen id) then begin
           Hashtbl.add seen id ();
           let e = tr.T.entries.(id) in
           if e.T.has_const then
             Array.iter
               (function
                 | I.Sconst slot -> add_slot slot
                 | I.Sconst_warp base ->
                     for w = 0 to p.I.n_warps - 1 do
                       add_slot (base + w)
                     done
                 | I.Sreg _ | I.Simm _ | I.Sshared _ -> ())
               e.T.srcs
         end))
    tr.T.body;
  Hashtbl.length lines * arch.A.const_line_bytes > arch.A.const_cache_bytes

let predict ?ctas ?n_sms ?skew (t : Compile.t) ~total_points =
  let p = t.Compile.lowered.Lower.program in
  let arch = t.Compile.options.Compile.arch in
  let ctas =
    match ctas with Some c -> c | None -> Compile.default_ctas t ~total_points
  in
  let launch = { M.program = p; total_points; ctas } in
  let occ = M.occupancy arch p in
  let resident = min occ.M.resident_ctas ctas in
  let batches = M.batches_per_cta launch in
  let sim_batches = min batches 6 in
  let tr = T.flatten arch p in
  let n_warps = p.I.n_warps in
  (* Queueing pressure per memory path: with S co-resident warps feeding
     a path, an access waits on average behind half the pack's concurrent
     transfers (the full simulator keeps one shared drain per path). *)
  let path_mult_of per_warp =
    let users kind =
      let n = ref 0 in
      for w = 0 to n_warps - 1 do
        if
          Array.exists
            (fun id ->
              match tr.T.entries.(id).T.instr with
              | Some (I.Ld_global { via_tex; _ }) ->
                  if via_tex && arch.A.has_ldg then kind = `Tex
                  else kind = `Glob
              | Some (I.St_global _) -> kind = `Glob
              | Some (I.Ld_local _ | I.St_local _) -> kind = `Loc
              | Some (I.Ld_const_bank _ | I.Ld_param _) ->
                  if arch.A.has_ldg then kind = `Tex else kind = `Glob
              | _ -> false)
            per_warp.(w)
        then incr n
      done;
      let own = float_of_int !n in
      let others = cross_cta_overlap *. own *. float_of_int (resident - 1) in
      Float.max 1.0 ((own +. others) /. 2.0)
    in
    { tex_m = users `Tex; glob_m = users `Glob; loc_m = users `Loc }
  in
  (* Prologue: rendezvous over the prologue streams, plus the cold fill
     of the code both phases touch. *)
  let thrash = ccache_thrashes arch p tr in
  let agg_pro = seg_zero () in
  let pro_pm = path_mult_of tr.T.prologue in
  let pro_streams =
    Array.init n_warps (fun w ->
        items_of arch p ~ccache_thrash:false ~pm:pro_pm ~agg:agg_pro tr
          tr.T.prologue.(w))
  in
  let pro_walk = rendezvous n_warps pro_streams in
  let pro_thr =
    float_of_int resident *. snd (max_term (demand_terms arch agg_pro))
  in
  let lat = float_of_int arch.A.global_latency in
  (* Cold code fetch: on its first pass every warp misses each line of
     its own path. Straight-line code costs only the prefetcher's
     catch-up per line; once the divergent regions outnumber the
     prefetch streams, each line costs a full miss. *)
  let line_bytes = A.icache_line_bytes arch in
  let own_lines w =
    let lines = Hashtbl.create 64 in
    let add id =
      let l = tr.T.entries.(id).T.addr / line_bytes in
      if not (Hashtbl.mem lines l) then Hashtbl.add lines l ()
    in
    Array.iter add tr.T.prologue.(w);
    Array.iter add tr.T.body.(w);
    Hashtbl.length lines
  in
  let ic_cold_lines = ref 0 in
  for w = 0 to n_warps - 1 do
    ic_cold_lines := max !ic_cold_lines (own_lines w)
  done;
  let per_line_cold =
    if long_paths p.I.body > Gpusim.Caches.Icache.max_streams then
      arch.A.icache_miss_latency
    else Gpusim.Caches.Icache.prefetch_fill
  in
  let cold_fill =
    icache_cold *. float_of_int (!ic_cold_lines * per_line_cold)
  in
  (* Cold constant fills: the first batch misses once per constant line a
     warp touches (when the working set thrashes, the recurring per-access
     term below already charges every batch, the first included). *)
  let cc_cold_lines =
    if thrash then 0
    else begin
      let spl = arch.A.const_line_bytes / 8 in
      let worst = ref 0 in
      for w = 0 to n_warps - 1 do
        let lines = Hashtbl.create 64 in
        let add slot =
          let l = slot / spl in
          if not (Hashtbl.mem lines l) then Hashtbl.add lines l ()
        in
        Array.iter
          (fun id ->
            let e = tr.T.entries.(id) in
            if e.T.has_const then
              Array.iter
                (function
                  | I.Sconst slot -> add slot
                  | I.Sconst_warp base -> add (base + w)
                  | I.Sreg _ | I.Simm _ | I.Sshared _ -> ())
                e.T.srcs)
          tr.T.body.(w);
        worst := max !worst (Hashtbl.length lines)
      done;
      !worst
    end
  in
  let cold_const = ccache_cold *. float_of_int cc_cold_lines *. lat in
  let prologue_cycles =
    Float.max pro_walk pro_thr +. cold_fill +. cold_const
  in
  (* Body: critical path from walking exactly the simulated batches
     (cold barrier ramp included), steady state from differencing a
     multi-batch walk, and the per-batch demand aggregated over one
     batch of every warp. *)
  let agg_body = seg_zero () in
  let body_pm = path_mult_of tr.T.body in
  let body_streams =
    Array.init n_warps (fun w ->
        items_of arch p ~ccache_thrash:thrash ~pm:body_pm ~agg:agg_body tr
          tr.T.body.(w))
  in
  let walk k =
    if k = 0 then 0.0 else rendezvous n_warps (repeat_streams k body_streams)
  in
  let sync_sim = walk sim_batches in
  (* The steady-state per-batch critical path needs two extra multi-batch
     walks; it only matters for the [(batches - sim_batches)]
     extrapolation, so when the launch has no batches beyond the
     simulated ones (the common tuning shape) skip the walks — predict
     stays much cheaper than one simulation, which is the whole point of
     model-guided pruning. *)
  let sync_cycles =
    if batches = sim_batches then
      sync_sim /. float_of_int (max 1 sim_batches)
    else
      let t2 = if sim_batches = 2 then sync_sim else walk 2 in
      let t4 = if sim_batches = 4 then sync_sim else walk 4 in
      Float.max 0.0 ((t4 -. t2) /. 2.0)
  in
  let thr_resource, thr_batch = max_term (demand_terms arch agg_body) in
  let throughput_cycles = float_of_int resident *. thr_batch in
  (* Body-code refetch on later batches, once the united footprint
     overflows the cache. *)
  let body_lines = distinct_lines arch tr tr.T.body in
  let footprint = body_lines * line_bytes in
  let icache_cycles =
    if footprint <= arch.A.icache_bytes then 0.0
    else icache_exposure *. float_of_int (body_lines * per_line_cold)
  in
  (* Combining the two sides is asymmetric: a throughput-bound batch
     hides none of its per-warp stalls (all warps stall together between
     turns at the saturated pipe), while a latency-bound batch drains
     most of its pipe work during the stalls. *)
  let combine thr sync =
    if thr >= sync then (thr_resource, thr +. sync)
    else ("synchronization", sync +. (sync_overlap *. thr))
  in
  let binding, body_sim =
    combine (float_of_int sim_batches *. throughput_cycles) sync_sim
  in
  let body_sim =
    body_sim +. (float_of_int (sim_batches - 1) *. icache_cycles)
  in
  let _, batch_steady = combine throughput_cycles sync_cycles in
  let batch_cycles = batch_steady +. icache_cycles in
  let cycles = prologue_cycles +. body_sim in
  let floor_cycles =
    float_of_int sim_batches *. float_of_int resident *. thr_batch
  in
  (* End-to-end: mirror Chip.run's extrapolation, then feed the same
     dispatcher/arbiter (Chip.schedule) with model-derived round costs
     instead of simulated ones, so predicted wall time carries the same
     tail-wave and bandwidth-contention semantics as the simulator. *)
  let cycles_full =
    cycles +. (float_of_int (batches - sim_batches) *. batch_cycles)
  in
  (* Round cost for k resident CTAs: the throughput term scales with k
     (k CTAs share the pipes), the critical-path and prologue terms do
     not. k = resident reproduces [cycles_full] exactly. *)
  let cycles_full_of k =
    let thr_b = float_of_int k *. thr_batch in
    let _, b_sim = combine (float_of_int sim_batches *. thr_b) sync_sim in
    let b_sim = b_sim +. (float_of_int (sim_batches - 1) *. icache_cycles) in
    let _, b_steady = combine thr_b sync_cycles in
    prologue_cycles +. b_sim
    +. (float_of_int (batches - sim_batches) *. (b_steady +. icache_cycles))
  in
  let n_sms = match n_sms with Some n -> n | None -> arch.A.n_sms in
  let skew = match skew with Some s -> s | None -> arch.A.sm_clock_skew in
  let spill_working_set =
    n_sms * resident * n_warps * 32 * p.I.local_doubles * 8
  in
  let spill_in_l2 =
    p.I.local_doubles > 0 && spill_working_set <= arch.A.l2_bytes
  in
  (* [agg_body] holds one batch of every warp in one CTA; spill traffic
     whose aggregate working set fits in L2 never reaches DRAM. *)
  let batch_dram_b =
    agg_body.tex_b +. agg_body.glob_b
    +. (if spill_in_l2 then 0.0 else agg_body.loc_b)
  in
  let round_cycles k =
    if k = resident then cycles_full else cycles_full_of k
  in
  let round_dram_bytes k =
    float_of_int batches *. float_of_int k *. batch_dram_b
  in
  let chip =
    C.schedule ~n_sms ~skew ~resident ~ctas ~round_cycles ~round_dram_bytes
      ~dram_peak_bpc:(A.dram_bytes_per_chip_cycle arch) ~spill_in_l2
  in
  let time_s = chip.C.makespan_cycles /. (arch.A.clock_mhz *. 1e6) in
  let points_per_sec = float_of_int total_points /. time_s in
  {
    occ;
    resident;
    batches;
    sim_batches;
    prologue_cycles;
    batch_cycles;
    throughput_cycles;
    sync_cycles;
    icache_cycles;
    binding;
    cycles;
    floor_cycles;
    chip;
    time_s;
    points_per_sec;
  }

let rel_err ~predicted ~measured =
  if measured = 0.0 then infinity
  else abs_float (predicted -. measured) /. measured
