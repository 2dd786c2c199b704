(* The compile target both front ends accept: one table of fields from
   which the CLI's flags, serve's JSON codec and the Compile.options
   resolution are all derived (DESIGN §15.2). *)

module J = Sutil.Json

type t = {
  t_mech : string;
  t_kernel : string;
  t_arch : string;
  t_version : string;
  t_warps : int;
  t_points : int;
  t_synth : bool option;
  t_overlap : bool;
  t_partition : string;
}

let default =
  {
    t_mech = "dme";
    t_kernel = "viscosity";
    t_arch = "kepler";
    t_version = "ws";
    t_warps = 8;
    t_points = 8192;
    t_synth = None;
    t_overlap = true;
    t_partition = "hand";
  }

(* A CLI run simulates the paper's 32^3 grid; a serve request is
   interactive, so it defaults to a quarter of that. *)
let cli_default = { default with t_points = 32768 }

(* ---- each field's one parser and error text ---- *)

let lookup what expected of_string s =
  match of_string s with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "unknown %s %S%s" what s expected)

let mechanism =
  lookup "mechanism" " (expected dme, heptane, methane or hydrogen)"
    Chem.Mech_gen.by_name

let kernel_of = lookup "kernel" "" Kernel_abi.kernel_of_string
let arch_of = lookup "architecture" "" Gpusim.Arch.by_name
let version_of = lookup "version" "" Compile.version_of_string

let auto_partition =
  lookup "partition mode" " (expected hand or auto)" (function
    | "hand" -> Some false
    | "auto" -> Some true
    | _ -> None)

let positive n =
  if n >= 1 then Ok n else Error (Printf.sprintf "must be >= 1, got %d" n)

let pos_int s =
  match int_of_string_opt (String.trim s) with
  | Some n -> positive n
  | None -> Error (Printf.sprintf "must be a positive integer, got %S" s)

let boolean s =
  Option.to_result (bool_of_string_opt s)
    ~none:(Printf.sprintf "must be true or false, got %S" s)

(* ---- the field table ---- *)

type 'a field = {
  name : string;  (** wire name; the flag is [--name] with '-' for '_' *)
  docv : string;
  doc : string;
  get : t -> 'a;
  set : t -> 'a -> t;
  parse : string -> ('a, string) result;
  print : 'a -> string;
  encode : 'a -> J.t option;  (** [None]: left out of the encoding *)
  decode : J.t -> ('a, string) result;
}

type field_any = Field : 'a field -> field_any

let field name docv doc (parse, print, encode, decode) get set =
  { name; docv; doc; get; set; parse; print; encode; decode }

(* A JSON value of the expected type, then the field's own check. *)
let decoder what of_json check v =
  match of_json v with
  | Some x -> check x
  | None ->
      Error (Printf.sprintf "must be %s, got %s" what (J.to_string_brief v))

let string_json = decoder "a string" J.str Result.ok
let pos_int_json = decoder "a positive integer" J.int positive

let member key decode doc =
  match J.member key doc with
  | None -> Ok None
  | Some v ->
      Result.map Option.some
        (Result.map_error (Printf.sprintf "field %S %s" key) (decode v))

(* Names are checked when the target is resolved, not when it is
   decoded, so a request naming an unknown kernel is still a well-formed
   request (and round-trips). *)
let named ?omit check =
  ( (fun s -> Result.map (fun _ -> s) (check s)),
    Fun.id,
    (fun s -> if Some s = omit then None else Some (J.Str s)),
    string_json )

let count =
  ( pos_int,
    string_of_int,
    (fun n -> Some (J.Num (float_of_int n))),
    pos_int_json )

let mech =
  field "mech" "NAME" "Bundled mechanism: dme, heptane, methane or hydrogen."
    (named mechanism)
    (fun t -> t.t_mech)
    (fun t v -> { t with t_mech = v })

let kernel =
  field "kernel" "KERNEL"
    "viscosity, conductivity, diffusion, chemistry, or a stencil pipeline: \
     edge3, unsharp2."
    (named kernel_of)
    (fun t -> t.t_kernel)
    (fun t v -> { t with t_kernel = v })

let arch =
  field "arch" "ARCH" "fermi or kepler." (named arch_of)
    (fun t -> t.t_arch)
    (fun t v -> { t with t_arch = v })

let version =
  field "version" "V" "ws, baseline or naive." (named version_of)
    (fun t -> t.t_version)
    (fun t v -> { t with t_version = v })

let warps =
  field "warps" "N" "Warps per CTA." count
    (fun t -> t.t_warps)
    (fun t v -> { t with t_warps = v })

let points =
  field "points" "N"
    "Grid points the kernel is launched over ($(b,compile) and $(b,stats) \
     accept and ignore it)."
    count
    (fun t -> t.t_points)
    (fun t v -> { t with t_points = v })

(* Unset is the per-architecture default. *)
let synth_exchange =
  field "synth_exchange" "BOOL"
    "Force the shuffle-exchange superoptimizer on or off: same-warp \
     shared-memory round-trips are rewritten into register forwards and \
     lane-shuffle programs, and the freed exchange slots leave the shared \
     footprint. Default: on when the architecture broadcasts through \
     shuffles (Kepler), off otherwise."
    ( (fun s -> Result.map Option.some (boolean s)),
      (function None -> "auto" | Some b -> string_of_bool b),
      Option.map (fun b -> J.Bool b),
      decoder "a boolean" J.bool (fun b -> Ok (Some b)) )
    (fun t -> t.t_synth)
    (fun t v -> { t with t_synth = v })

(* Encoded only when off, so every request that predates the field
   encodes as it did. *)
let stencil_overlap =
  field "stencil_overlap" "BOOL"
    "Warp-overlapped tiling for stencil pipelines: when on, upstream bands \
     compute halo-extended tiles (redundant recompute at the seams) so every \
     consumer warp reads from exactly one producer; when off, each column is \
     computed once and halo taps read cross-warp through shared memory. \
     Ignored by the combustion kernels."
    ( boolean,
      string_of_bool,
      (fun b -> if b then None else Some (J.Bool false)),
      decoder "a boolean" J.bool Result.ok )
    (fun t -> t.t_overlap)
    (fun t v -> { t with t_overlap = v })

let partition =
  field "partition" "MODE"
    "Warp partition: $(b,hand) keeps the paper's fixed producer/consumer \
     split; $(b,auto) searches structure-derived candidate partitions \
     (fan-out hubs as producers, arithmetic chains onto consumers) crossed \
     with pipeline depths, ranked by the analytic model and gated by the \
     static deadlock verifier. A candidate that fails the gate is reported \
     as partition-rejected and never simulated."
    (named ~omit:"hand" auto_partition)
    (fun t -> t.t_partition)
    (fun t v -> { t with t_partition = v })

let fields =
  [ Field mech; Field kernel; Field arch; Field version; Field warps;
    Field points; Field synth_exchange; Field stencil_overlap;
    Field partition ]

let names = List.map (fun (Field f) -> f.name) fields

(* ---- JSON ---- *)

let to_json t =
  List.filter_map
    (fun (Field f) -> Option.map (fun v -> (f.name, v)) (f.encode (f.get t)))
    fields

let of_json doc =
  List.fold_left
    (fun acc (Field f) ->
      Result.bind acc (fun t ->
          Result.map
            (Option.fold ~none:t ~some:(f.set t))
            (member f.name f.decode doc)))
    (Ok default) fields

(* ---- command line ---- *)

let conv f =
  Cmdliner.Arg.conv'
    (f.parse, fun ppf v -> Format.pp_print_string ppf (f.print v))

let arg f =
  let open Cmdliner in
  Arg.value
  @@ Arg.opt (conv f) (f.get cli_default)
  @@ Arg.info
       [ String.map (function '_' -> '-' | c -> c) f.name ]
       ~docv:f.docv ~doc:f.doc

let term ?(except = []) () =
  List.fold_left
    (fun acc (Field f) ->
      if List.mem f.name except then acc
      else Cmdliner.Term.(const f.set $ acc $ arg f))
    (Cmdliner.Term.const cli_default)
    fields

let pos_int_conv what =
  Cmdliner.Arg.conv'
    ( (fun s -> Result.map_error (fun m -> what ^ " " ^ m) (pos_int s)),
      Format.pp_print_int )

(* ---- resolution ---- *)

type error = Bad_request of string | Rejected of Diagnostics.t

let resolve ?mech t =
  let ( let* ) = Result.bind in
  let bad r = Result.map_error (fun m -> Bad_request m) r in
  let* mech =
    match mech with Some m -> Ok m | None -> bad (mechanism t.t_mech)
  in
  let* kernel = bad (kernel_of t.t_kernel) in
  let* arch = bad (arch_of t.t_arch) in
  let* version = bad (version_of t.t_version) in
  let* auto = bad (auto_partition t.t_partition) in
  let options =
    {
      (Compile.kernel_options arch kernel ~n_warps:t.t_warps) with
      Compile.synth_exchange = t.t_synth;
      stencil_overlap = t.t_overlap;
    }
  in
  let* options =
    if auto then
      Result.map_error
        (fun d -> Rejected d)
        (Partition_search.resolve_options mech kernel version ~base:options)
    else Ok options
  in
  Ok (mech, kernel, arch, version, options)
