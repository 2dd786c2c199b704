(** Minimal JSON reader/writer: the repository's one JSON value type.

    No JSON library is vendored, so this module parses the full RFC 8259
    grammar into a small value type and prints it back. Every document
    the programs write (perf snapshot, serve responses, pass reports,
    profiles, Chrome traces) is built as a {!t} and printed by {!emit}.
    Numbers are kept as OCaml [float]s — the protocol's integers are all
    well below 2{^53} — and object member order is preserved so emitted
    documents round-trip byte-identically through [parse |> emit]. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse exactly one JSON document (trailing whitespace allowed,
    anything else after it is an error). [Error msg] starts with
    ["byte N: "], the offset of the first offending byte. *)

val emit : t -> string
(** Compact single-line rendering. Total: [parse (emit v)] is [Ok v'],
    where [v'] is [v] with every non-finite number replaced by [Null]
    (JSON has no NaN or infinity). Integral numbers below 1e15 print as
    integers; other numbers print as the shortest of [%.15g], [%.16g]
    and [%.17g] that reads back to the same float. Strings are
    byte-preserved except for the escaped quote, backslash and control
    characters. *)

val member : string -> t -> t option
(** [member k (Obj _)] is the first binding of [k]; [None] on missing
    keys and non-objects. *)

val str : t -> string option
val num : t -> float option
val int : t -> int option
(** {!int} accepts only integral numbers that fit an OCaml [int]. *)

val bool : t -> bool option
val list : t -> t list option

val to_string_brief : t -> string
(** One-line description of a value's shape for error messages
    (["string"], ["number"], ["object"], ...). *)
