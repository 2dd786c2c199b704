(** The compile target: what to compile and launch, as both front ends
    accept it.

    One table holds each field's flag and wire name, doc, default, string
    parser (with the field's one error text) and JSON encoding. The CLI's
    flags ({!term}), serve's request codec ({!to_json}, {!of_json}) and
    the options resolution ({!resolve}) are folds over that table. *)

type t = {
  t_mech : string;
  t_kernel : string;
  t_arch : string;
  t_version : string;
  t_warps : int;
  t_points : int;
  t_synth : bool option;  (** [--synth-exchange]; [None]: per architecture *)
  t_overlap : bool;  (** [--stencil-overlap] *)
  t_partition : string;  (** ["hand"] or ["auto"] (model-only search) *)
}

val default : t
(** dme viscosity on kepler, ws, 8 warps, 8192 points, hand partition:
    the values a serve request may omit. The CLI's flags default to the
    same except for 32768 points. *)

type 'a field

val mech : string field
val kernel : string field
val version : string field
val warps : int field

val names : string list
(** Every field's wire name, in table order. *)

(** {1 JSON} *)

val to_json : t -> (string * Sutil.Json.t) list
(** The target's request members, in table order; [synth_exchange] is
    left out when unset, [stencil_overlap] when on, [partition] when
    ["hand"]. *)

val of_json : Sutil.Json.t -> (t, string) result
(** The target members of a request object over {!default}. A member of
    the wrong JSON type or an integer below 1 is an error naming the
    field; names are checked by {!resolve}. *)

val member :
  string -> (Sutil.Json.t -> ('a, string) result) -> Sutil.Json.t ->
  ('a option, string) result
(** [member key decode doc]: an absent member is [None], a present one
    must decode (the error names the field). *)

val string_json : Sutil.Json.t -> (string, string) result
val pos_int_json : Sutil.Json.t -> (int, string) result

(** {1 Command line} *)

val term : ?except:string list -> unit -> t Cmdliner.Term.t
(** One flag per field (its wire name with '-' for '_'); fields named in
    [except] keep their default. *)

val arg : 'a field -> 'a Cmdliner.Term.t
(** One field's flag, as {!term} declares it. *)

val conv : 'a field -> 'a Cmdliner.Arg.conv

val pos_int_conv : string -> int Cmdliner.Arg.conv
(** A positive integer, with the integer fields' error texts after
    [what] (["--sms must be >= 1, got 0"]). *)

(** {1 Resolution} *)

type error =
  | Bad_request of string  (** an unknown name: usage error, exit 124 *)
  | Rejected of Diagnostics.t  (** failed partition search: exit 2 *)

val resolve :
  ?mech:Chem.Mechanism.t ->
  t ->
  ( Chem.Mechanism.t * Kernel_abi.kernel * Gpusim.Arch.t * Compile.version
    * Compile.options,
    error )
  result
(** Look the names up and build {!Compile.kernel_options} with the
    exchange and tiling overrides; [partition = "auto"] takes the
    model-only {!Partition_search} winner. [mech] replaces the named
    mechanism (the CLI's CHEMKIN inputs). *)
