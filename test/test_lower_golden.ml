(* Golden lowering digests: every candidate of the partition search's
   population, lowered through the pipeline on Kepler, must keep emitting
   exactly the program it emitted when these digests were recorded. Each
   row pins MD5 of the program's text form, the spill slot count, the
   shared footprint and the shuffle-exchange report, so a rewrite of
   [Lower]'s internals (grouping keys, allocator tables, exchange scans)
   that changes a single emitted instruction fails here, naming the
   candidate. Failed compiles are pinned by their diagnostic. *)

module C = Singe.Compile
module K = Singe.Kernel_abi

let arch = Gpusim.Arch.kepler_k20c

let base_options kernel n_warps =
  {
    (C.default_options arch) with
    C.n_warps;
    max_barriers = (if kernel = K.Chemistry then 16 else 8);
    ctas_per_sm_target = (if kernel = K.Chemistry then 1 else 2);
  }

let targets =
  [
    ("chemistry-ws4", K.Chemistry, 4);
    ("edge3-ws4", K.Stencil Singe.Stencil_pipe.Edge3, 4);
    ("unsharp2-ws8", K.Stencil Singe.Stencil_pipe.Unsharp2, 8);
  ]

let row (c : C.t) =
  let l = c.C.lowered in
  let x = l.Singe.Lower.exchange in
  Printf.sprintf "%s spill=%d shared=%d xchg=%d/%d/%d/%d/%d/%d"
    (Digest.to_hex (Digest.string (Gpusim.Isa_text.emit l.Singe.Lower.program)))
    l.Singe.Lower.n_spill_slots l.Singe.Lower.program.Gpusim.Isa.shared_doubles
    x.Singe.Shuffle_synth.sites_seen x.Singe.Shuffle_synth.sites_rewritten
    x.Singe.Shuffle_synth.round_trips_removed
    x.Singe.Shuffle_synth.stores_removed x.Singe.Shuffle_synth.shuffle_steps
    x.Singe.Shuffle_synth.shared_bytes_freed

let compile_row mech kernel version o =
  match C.compile_checked ~validate:false mech kernel version o with
  | Ok (c, _) -> row c
  | Error d ->
      "fail " ^ Digest.to_hex (Digest.string (Singe.Diagnostics.to_string d))

(* The digest rows of one target, in candidate order. *)
let rows mech (_, kernel, n_warps) =
  let base = base_options kernel n_warps in
  let hand = C.compile mech kernel C.Warp_specialized base in
  Singe.Partition_search.candidate_options base hand.C.dfg
  |> List.map (compile_row mech kernel C.Warp_specialized)

(* Register-starved compiles (12 double registers) across the other
   lowering paths — Fermi's shared mirror, the naive warp switch, the
   replicated baseline — where every program spills: these pin the
   allocator's eviction choices, which the candidate population above
   never exercises. *)
let starved =
  let kepler = Gpusim.Arch.kepler_k20c and fermi = Gpusim.Arch.fermi_c2070 in
  [
    ("chemistry-ws4-kepler", K.Chemistry, kepler, C.Warp_specialized, None);
    ("viscosity-ws4-fermi-synth", K.Viscosity, fermi, C.Warp_specialized, Some true);
    ("diffusion-ws4-naive", K.Diffusion, kepler, C.Naive_warp_specialized, None);
    ("conductivity-baseline", K.Conductivity, kepler, C.Baseline, None);
    ("edge3-ws4-fermi", K.Stencil Singe.Stencil_pipe.Edge3, fermi, C.Warp_specialized, None);
  ]

let starved_row mech (_, kernel, arch, version, synth_exchange) =
  let o =
    {
      (base_options kernel 4) with
      C.arch;
      freg_budget = Some 12;
      synth_exchange;
    }
  in
  compile_row mech kernel version o

(* Expected rows, in candidate order. A change meant to alter the emitted
   code re-records them and says why. *)
let golden =
  [
    ( "chemistry-ws4",
      [
        "a5572010a35450b7ac7c11c3ee1055fe spill=0 shared=6848 xchg=599/215/215/0/0/0";
        "a5572010a35450b7ac7c11c3ee1055fe spill=0 shared=6848 xchg=599/215/215/0/0/0";
        "4ebdb564643cdafed33b0dbd64d969b2 spill=0 shared=1248 xchg=404/46/46/0/0/0";
        "b61322d5f146dd3185ada9c2c0abf851 spill=0 shared=1280 xchg=404/46/46/0/0/0";
        "9e22dffb4265baf07d28b617b2f27c18 spill=0 shared=2720 xchg=588/198/198/0/0/0";
        "9e22dffb4265baf07d28b617b2f27c18 spill=0 shared=2720 xchg=588/198/198/0/0/0";
        "c0ff36d605d081f1a6d2554142cad6d9 spill=0 shared=6240 xchg=584/228/228/0/0/0";
        "c0ff36d605d081f1a6d2554142cad6d9 spill=0 shared=6240 xchg=584/228/228/0/0/0";
        "3632bfe7894766f82f59cf46eeb3d5d5 spill=0 shared=1280 xchg=375/54/54/0/0/0";
        "0d72e583d70874688df15837f41e4f8d spill=0 shared=1312 xchg=375/54/54/0/0/0";
        "47f75cfff141f57dfe01b4d9f62a1aab spill=0 shared=2656 xchg=565/205/205/0/0/0";
        "47f75cfff141f57dfe01b4d9f62a1aab spill=0 shared=2656 xchg=565/205/205/0/0/0";
        "7bd3110a52466aba35eb0e7de5315ffb spill=0 shared=6304 xchg=498/92/92/0/0/0";
        "7bd3110a52466aba35eb0e7de5315ffb spill=0 shared=6304 xchg=498/92/92/0/0/0";
        "7dd964a0e2d5aadce37c85b597922485 spill=0 shared=1376 xchg=411/39/39/0/0/0";
        "128d7bcdb7333fafd8736488abe87053 spill=0 shared=1472 xchg=411/39/39/0/0/0";
        "12ea753612436fdda4a202cca3f0a567 spill=0 shared=2784 xchg=584/111/111/1/0/256";
        "12ea753612436fdda4a202cca3f0a567 spill=0 shared=2784 xchg=584/111/111/1/0/256";
        "e08179692c3d86bee87c19352f76dc95 spill=0 shared=6112 xchg=518/105/106/0/0/0";
        "e08179692c3d86bee87c19352f76dc95 spill=0 shared=6112 xchg=518/105/106/0/0/0";
        "0f55a1fc0686e20eb784c422ffe8673b spill=0 shared=1376 xchg=406/51/51/0/0/0";
        "8bd7a2b966be1cb7ea5939310cb4086e spill=0 shared=1664 xchg=406/51/51/0/0/0";
        "c8e37630f6de94293d4caa6f2073cfea spill=0 shared=2976 xchg=551/109/109/0/0/0";
        "c8e37630f6de94293d4caa6f2073cfea spill=0 shared=2976 xchg=551/109/109/0/0/0";
        "14670ce2e6fa81c338fd14ad721aa6cf spill=0 shared=7008 xchg=566/158/210/0/0/0";
        "14670ce2e6fa81c338fd14ad721aa6cf spill=0 shared=7008 xchg=566/158/210/0/0/0";
        "7a0f6cad95418e3bcd9ff2072490e650 spill=0 shared=1344 xchg=426/44/44/0/0/0";
        "5fa3cb6c8d40c08672ada7938e4cac22 spill=0 shared=1568 xchg=426/44/44/0/0/0";
        "f53e0a237d3de1072bc31a5d4c1c1fd8 spill=0 shared=2816 xchg=616/199/203/0/0/0";
        "f53e0a237d3de1072bc31a5d4c1c1fd8 spill=0 shared=2816 xchg=616/199/203/0/0/0";
        "835a4eb947146783e9d4a75513070d1c spill=0 shared=6176 xchg=567/176/202/0/0/0";
        "835a4eb947146783e9d4a75513070d1c spill=0 shared=6176 xchg=567/176/202/0/0/0";
        "e431c99765c51149a68d94028dc1270f spill=0 shared=1312 xchg=383/53/53/0/0/0";
        "2c00898701ca518c1980555cebeb935a spill=0 shared=1536 xchg=383/53/53/0/0/0";
        "449fd468529ddbd962391d933d1a43f6 spill=0 shared=2720 xchg=577/200/204/0/0/0";
        "449fd468529ddbd962391d933d1a43f6 spill=0 shared=2720 xchg=577/200/204/0/0/0";
        "ef2064e90cfb2a8593637d881559b9fa spill=0 shared=6304 xchg=499/95/96/0/0/0";
        "ef2064e90cfb2a8593637d881559b9fa spill=0 shared=6304 xchg=499/95/96/0/0/0";
        "0b392dc74cdebc689949bf70a35b1793 spill=0 shared=1376 xchg=407/47/47/0/0/0";
        "bd589449dac7ae3e3190e6aea626fa89 spill=0 shared=1440 xchg=407/47/47/0/0/0";
        "085c8ae787054683bb096e08f4ab923a spill=0 shared=2848 xchg=578/127/128/0/0/0";
        "085c8ae787054683bb096e08f4ab923a spill=0 shared=2848 xchg=578/127/128/0/0/0";
        "41b5e68cddfee5315625a1cd05de9c42 spill=0 shared=5888 xchg=500/116/117/0/0/0";
        "41b5e68cddfee5315625a1cd05de9c42 spill=0 shared=5888 xchg=500/116/117/0/0/0";
        "2bb83035a01e343752ba803d928d41d7 spill=0 shared=1312 xchg=382/55/55/0/0/0";
        "61ba6c1d58912aea8982b0be80edbf7f spill=0 shared=1408 xchg=382/55/55/0/0/0";
        "d6ef4cd10053e982c99270f42d905a88 spill=0 shared=2848 xchg=565/137/138/0/0/0";
        "d6ef4cd10053e982c99270f42d905a88 spill=0 shared=2848 xchg=565/137/138/0/0/0";
      ] );
    ( "edge3-ws4",
      [
        "1fb6757933bc889b17c511cc9f7b8934 spill=0 shared=2496 xchg=214/6/6/0/0/0";
        "1fb6757933bc889b17c511cc9f7b8934 spill=0 shared=2496 xchg=214/6/6/0/0/0";
        "fab4c593b67489fda74ad79dbcc7a30a spill=0 shared=512 xchg=140/0/0/0/0/0";
        "724b679004712fd477316b49d07155f8 spill=0 shared=1536 xchg=140/0/0/0/0/0";
        "fa1c795496b229622b17cfaafea35200 spill=0 shared=1472 xchg=200/0/0/0/0/0";
        "247843a98dc6d268c7e6c6eec5a7a823 spill=0 shared=2176 xchg=200/0/0/0/0/0";
        "1fb6757933bc889b17c511cc9f7b8934 spill=0 shared=2496 xchg=214/6/6/0/0/0";
        "1fb6757933bc889b17c511cc9f7b8934 spill=0 shared=2496 xchg=214/6/6/0/0/0";
        "fab4c593b67489fda74ad79dbcc7a30a spill=0 shared=512 xchg=140/0/0/0/0/0";
        "724b679004712fd477316b49d07155f8 spill=0 shared=1536 xchg=140/0/0/0/0/0";
        "fa1c795496b229622b17cfaafea35200 spill=0 shared=1472 xchg=200/0/0/0/0/0";
        "247843a98dc6d268c7e6c6eec5a7a823 spill=0 shared=2176 xchg=200/0/0/0/0/0";
        "2a7d9f456f36a5643ddecc516a7dc10f spill=0 shared=3104 xchg=289/91/91/0/0/0";
        "2a7d9f456f36a5643ddecc516a7dc10f spill=0 shared=3104 xchg=289/91/91/0/0/0";
        "ccbb257b07fd846321650234bda6cfba spill=0 shared=512 xchg=130/0/0/0/0/0";
        "31f006b28522b2f7197a5cb62c82e97c spill=0 shared=1536 xchg=130/0/0/0/0/0";
        "a63fd16b5bbec551664cbe1bdd7401ba spill=0 shared=1024 xchg=174/30/30/0/0/0";
        "a4a474b4767a3707fcd92852c85b1904 spill=0 shared=2048 xchg=174/30/30/0/0/0";
        "2a7d9f456f36a5643ddecc516a7dc10f spill=0 shared=3104 xchg=289/91/91/0/0/0";
        "2a7d9f456f36a5643ddecc516a7dc10f spill=0 shared=3104 xchg=289/91/91/0/0/0";
        "ccbb257b07fd846321650234bda6cfba spill=0 shared=512 xchg=130/0/0/0/0/0";
        "31f006b28522b2f7197a5cb62c82e97c spill=0 shared=1536 xchg=130/0/0/0/0/0";
        "a63fd16b5bbec551664cbe1bdd7401ba spill=0 shared=1024 xchg=174/30/30/0/0/0";
        "a4a474b4767a3707fcd92852c85b1904 spill=0 shared=2048 xchg=174/30/30/0/0/0";
      ] );
    ( "unsharp2-ws8",
      [
        "b36bc2ad23acab66a8ee3f5cc96dce49 spill=0 shared=3648 xchg=159/26/26/0/0/0";
        "b36bc2ad23acab66a8ee3f5cc96dce49 spill=0 shared=3648 xchg=159/26/26/0/0/0";
        "ebc16486d5b12020fdede049cdbb8f9f spill=0 shared=512 xchg=171/0/0/0/0/0";
        "2b73995d781e0abb6f25b9a673a978f1 spill=0 shared=1536 xchg=144/0/0/0/0/0";
        "ef75927a4fcf3347a7465fea164f0148 spill=0 shared=1408 xchg=175/4/4/0/0/0";
        "c510888a42dd154e300bfcc86de32355 spill=0 shared=2304 xchg=170/4/4/0/0/0";
        "b36bc2ad23acab66a8ee3f5cc96dce49 spill=0 shared=3648 xchg=159/26/26/0/0/0";
        "b36bc2ad23acab66a8ee3f5cc96dce49 spill=0 shared=3648 xchg=159/26/26/0/0/0";
        "ebc16486d5b12020fdede049cdbb8f9f spill=0 shared=512 xchg=171/0/0/0/0/0";
        "2b73995d781e0abb6f25b9a673a978f1 spill=0 shared=1536 xchg=144/0/0/0/0/0";
        "ef75927a4fcf3347a7465fea164f0148 spill=0 shared=1408 xchg=175/4/4/0/0/0";
        "c510888a42dd154e300bfcc86de32355 spill=0 shared=2304 xchg=170/4/4/0/0/0";
        "6a75a1b3bf5ef92cba65219145473de8 spill=0 shared=4256 xchg=155/7/11/0/0/0";
        "6a75a1b3bf5ef92cba65219145473de8 spill=0 shared=4256 xchg=155/7/11/0/0/0";
        "775a39a7c5b0d6775c58c13516d1f4e9 spill=0 shared=512 xchg=205/0/0/0/0/0";
        "d3a40927ccd156a9dafea337d4f9ccf9 spill=0 shared=1536 xchg=182/0/0/0/0/0";
        "a25a5ef9a6bdc153d642da8ac89b27f4 spill=0 shared=1600 xchg=209/4/6/0/0/0";
        "f76911e5ecdcf911102a6ffda4b616da spill=0 shared=2560 xchg=208/6/6/0/0/0";
        "6a75a1b3bf5ef92cba65219145473de8 spill=0 shared=4256 xchg=155/7/11/0/0/0";
        "6a75a1b3bf5ef92cba65219145473de8 spill=0 shared=4256 xchg=155/7/11/0/0/0";
        "775a39a7c5b0d6775c58c13516d1f4e9 spill=0 shared=512 xchg=205/0/0/0/0/0";
        "d3a40927ccd156a9dafea337d4f9ccf9 spill=0 shared=1536 xchg=182/0/0/0/0/0";
        "a25a5ef9a6bdc153d642da8ac89b27f4 spill=0 shared=1600 xchg=209/4/6/0/0/0";
        "f76911e5ecdcf911102a6ffda4b616da spill=0 shared=2560 xchg=208/6/6/0/0/0";
        "1a2141e93fc020347e6e40d379fa332e spill=0 shared=4224 xchg=119/8/12/0/0/0";
        "1a2141e93fc020347e6e40d379fa332e spill=0 shared=4224 xchg=119/8/12/0/0/0";
        "0431a5c926a185ae77566c9f4a96c3e7 spill=0 shared=512 xchg=146/0/0/0/0/0";
        "d88e17ca74b21771700cf3ebcee6977a spill=0 shared=1536 xchg=135/0/0/0/0/0";
        "d6e82f4cd3db6e5e87bc0ec4d69d354b spill=0 shared=896 xchg=154/8/12/0/0/0";
        "7ef764515979f02052bb42d23cac2895 spill=0 shared=1856 xchg=147/8/12/0/0/0";
        "66ba1cb852d8a1158da6706baf8445eb spill=0 shared=4160 xchg=126/18/24/0/0/0";
        "66ba1cb852d8a1158da6706baf8445eb spill=0 shared=4160 xchg=126/18/24/0/0/0";
        "6011f87589d2a3ea7cd2ee2f0aa3b177 spill=0 shared=512 xchg=141/0/0/0/0/0";
        "ed65b8b3b1921cc53baadee52934adbb spill=0 shared=1536 xchg=133/0/0/0/0/0";
        "9aae3f55ea026d3430e31ae1a6b324ca spill=0 shared=768 xchg=145/4/8/0/0/0";
        "0d55dce8a9739226bcaf82cee5a1aae6 spill=0 shared=1792 xchg=139/4/8/0/0/0";
      ] );
  ]

let golden_starved =
  [
    ( "chemistry-ws4-kepler",
      "cc0a643867917029f794bbcfcb372689 spill=74 shared=1344 xchg=213/1/1/0/0/0" );
    ( "viscosity-ws4-fermi-synth",
      "3eb26feda1d7349598d31663221219de spill=29 shared=816 xchg=109/3/11/0/0/0" );
    ( "diffusion-ws4-naive",
      "5987e251763b2a0fee602e840f1bd6cc spill=21 shared=928 xchg=0/0/0/0/0/0" );
    ( "conductivity-baseline",
      "e9077a08837d2acf34788ffd998d008f spill=20 shared=0 xchg=0/0/0/0/0/0" );
    ( "edge3-ws4-fermi",
      "0aa82f02a365a7705b2ff16e23a686bb spill=57 shared=2064 xchg=0/0/0/0/0/0" );
  ]

let mech = lazy (Chem.Mech_gen.hydrogen ())

let check_target ((name, _, _) as target) () =
  let want = List.assoc name golden in
  let got = rows (Lazy.force mech) target in
  Alcotest.(check int) (name ^ ": candidate count") (List.length want)
    (List.length got);
  List.iteri
    (fun i (w, g) ->
      Alcotest.(check string) (Printf.sprintf "%s candidate %d" name i) w g)
    (List.combine want got)

let check_starved () =
  List.iter
    (fun ((name, _, _, _, _) as t) ->
      Alcotest.(check string) name (List.assoc name golden_starved)
        (starved_row (Lazy.force mech) t))
    starved

let tests =
  List.map
    (fun ((name, _, _) as t) ->
      Alcotest.test_case ("golden lowering " ^ name) `Quick (check_target t))
    targets
  @ [ Alcotest.test_case "golden lowering, register-starved" `Quick check_starved ]
