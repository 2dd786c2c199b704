(** Deprecated alias of {!Json.parse} that discards the value.

    Nothing in the library, the executables or the tests calls it; it
    stays only because the separately built benchmark worker
    ([perfbench/bench.ml]) still does. New code calls {!Json.parse}. *)

val validate : string -> (unit, string) result
(** [Ok ()] iff {!Json.parse} accepts the string. *)
