(* Utility-library tests: deterministic PRNG, small dense linear
   algebra and the JSON reader/writer. *)

let test_prng_determinism () =
  let a = Sutil.Prng.create 42L and b = Sutil.Prng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Sutil.Prng.int64 a) (Sutil.Prng.int64 b)
  done

let test_prng_bounds () =
  let t = Sutil.Prng.create 7L in
  for _ = 1 to 1000 do
    let v = Sutil.Prng.int t 17 in
    Alcotest.(check bool) "int in range" true (v >= 0 && v < 17);
    let f = Sutil.Prng.range t 2.0 3.0 in
    Alcotest.(check bool) "float in range" true (f >= 2.0 && f < 3.0);
    let g = Sutil.Prng.log_range t 1e-3 1e3 in
    Alcotest.(check bool) "log range" true (g >= 1e-3 && g < 1e3)
  done

let test_prng_sample () =
  let t = Sutil.Prng.create 9L in
  let s = Sutil.Prng.sample t 5 10 in
  Alcotest.(check int) "sample size" 5 (List.length s);
  Alcotest.(check int) "distinct" 5 (List.length (List.sort_uniq compare s));
  List.iter (fun v -> Alcotest.(check bool) "in range" true (v >= 0 && v < 10)) s

let test_prng_split_independent () =
  let t = Sutil.Prng.create 1L in
  let a = Sutil.Prng.split t "a" and b = Sutil.Prng.split t "b" in
  Alcotest.(check bool) "different streams" true
    (Sutil.Prng.int64 a <> Sutil.Prng.int64 b)

let test_solve_exact () =
  let a = [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  let x = Sutil.Linalg.solve a [| 5.0; 10.0 |] in
  Alcotest.(check (float 1e-12)) "x0" 1.0 x.(0);
  Alcotest.(check (float 1e-12)) "x1" 3.0 x.(1)

let test_solve_singular () =
  let a = [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  Alcotest.check_raises "singular" Sutil.Linalg.Singular (fun () ->
      ignore (Sutil.Linalg.solve a [| 1.0; 2.0 |]))

let test_polyfit_exact () =
  (* A cubic is recovered exactly from its own samples. *)
  let coeffs = [| 1.5; -2.0; 0.25; 0.125 |] in
  let pts =
    List.init 10 (fun i ->
        let x = float_of_int i in
        (x, Sutil.Linalg.polyval coeffs x))
  in
  let fit = Sutil.Linalg.polyfit ~degree:3 pts in
  Array.iteri
    (fun i c -> Alcotest.(check (float 1e-8)) (Printf.sprintf "c%d" i) c fit.(i))
    coeffs

let qcheck_solve =
  QCheck.Test.make ~count:200 ~name:"solve satisfies a*x = b"
    QCheck.(
      pair
        (array_of_size (Gen.return 3) (float_range (-10.) 10.))
        (array_of_size (Gen.return 9) (float_range (-10.) 10.)))
    (fun (b, flat) ->
      let a = Array.init 3 (fun i -> Array.sub flat (3 * i) 3) in
      (* make it diagonally dominant so it is well conditioned *)
      Array.iteri (fun i row -> row.(i) <- row.(i) +. 50.0) a;
      let x = Sutil.Linalg.solve a b in
      Array.for_all Fun.id
        (Array.init 3 (fun i ->
             let s = ref 0.0 in
             for j = 0 to 2 do
               s := !s +. (a.(i).(j) *. x.(j))
             done;
             abs_float (!s -. b.(i)) < 1e-6)))

module J = Sutil.Json

(* JSON has no NaN or infinity: [emit] prints them as null. *)
let rec finite = function
  | J.Num v when not (Float.is_finite v) -> J.Null
  | J.List l -> J.List (List.map finite l)
  | J.Obj m -> J.Obj (List.map (fun (k, v) -> (k, finite v)) m)
  | v -> v

let json_gen =
  let open QCheck.Gen in
  let bytes = string_size ~gen:char (int_bound 12) in
  let num =
    oneof
      [
        float;
        map float_of_int int;
        oneofl [ nan; infinity; neg_infinity; -0.; 0.1; 12345.7; 1e15; 5e-324 ];
      ]
  in
  let leaf =
    oneof
      [
        return J.Null;
        map (fun b -> J.Bool b) bool;
        map (fun v -> J.Num v) num;
        map (fun s -> J.Str s) bytes;
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 0 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun l -> J.List l) (list_size (int_bound 4) (self (n / 4))));
               ( 1,
                 map
                   (fun m -> J.Obj m)
                   (list_size (int_bound 4) (pair bytes (self (n / 4)))) );
             ])

let qcheck_json_roundtrip =
  QCheck.Test.make ~count:500 ~name:"json parse (emit v) = v"
    (QCheck.make ~print:J.emit json_gen)
    (fun v -> J.parse (J.emit v) = Ok (finite v))

let test_json_numbers () =
  List.iter
    (fun (v, text) -> Alcotest.(check string) text text (J.emit (J.Num v)))
    [
      (12345.7, "12345.7");
      (0.1, "0.1");
      (42., "42");
      (-3., "-3");
      (1. /. 3., "0.3333333333333333");
      (nan, "null");
      (infinity, "null");
      (neg_infinity, "null");
    ]

(* Input from outside the program must meet RFC 8259: each malformed
   document is rejected at the byte that breaks it. *)
let test_json_rejects () =
  List.iter
    (fun (label, text, at) ->
      match J.parse text with
      | Ok _ -> Alcotest.failf "%s: accepted %S" label text
      | Error msg ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s" label msg)
            true
            (String.starts_with ~prefix:(Printf.sprintf "byte %d: " at) msg))
    [
      ("trailing garbage", {|{"a":1} x|}, 8);
      ("leading zero", "[01]", 2);
      ("no digit after the point", "1.", 2);
      ("bad escape", {|"\x"|}, 2);
      ("unterminated string", {|"abc|}, 4);
      ("raw control character", "\"a\nb\"", 2);
      ("unpaired high surrogate", {|"\ud800"|}, 7);
      ("unpaired low surrogate", {|"\udc00"|}, 7);
      ("nesting over 512", String.make 600 '[', 513);
    ];
  let deepest = String.make 513 '[' ^ String.make 513 ']' in
  Alcotest.(check bool) "nesting of 512 accepted" true
    (Result.is_ok (J.parse deepest))

(* The bounded LRU behind every long-lived cache: the capacity holds,
   a hit refreshes recency, the least recent entry goes first, and every
   eviction (but no removal or clear) is counted. *)
let test_lru () =
  let module L = Sutil.Lru in
  let c = L.create 2 in
  let present k = Option.is_some (L.find c k) in
  L.add c "a" 1;
  L.add c "b" 2;
  ignore (L.find c "a");
  L.add c "c" 3;
  Alcotest.(check int) "bound" 2 (L.length c);
  Alcotest.(check bool) "least recent evicted" false (present "b");
  Alcotest.(check int) "one eviction" 1 (L.evictions c);
  Alcotest.(check (option int)) "hit keeps its value" (Some 1) (L.find c "a");
  (* recency is now c, a: replacing c keeps the size and makes a oldest *)
  L.add c "c" 30;
  L.add c "d" 4;
  Alcotest.(check bool) "a evicted" false (present "a");
  Alcotest.(check (option int)) "replaced value" (Some 30) (L.find c "c");
  Alcotest.(check int) "two evictions" 2 (L.evictions c);
  (* reading c made d the least recent, so shrinking evicts d at once *)
  L.set_capacity c 1;
  Alcotest.(check bool) "shrunk to the most recent" true
    (L.length c = 1 && present "c");
  L.remove c "c";
  L.add c "e" 5;
  L.clear c;
  Alcotest.(check int) "cleared" 0 (L.length c);
  Alcotest.(check int) "removal and clear are not evictions" 3 (L.evictions c);
  Alcotest.check_raises "capacity below 1"
    (Invalid_argument "Lru: capacity = 0 must be >= 1") (fun () ->
      ignore (L.create 0))

let tests =
  [
    Alcotest.test_case "prng determinism" `Quick test_prng_determinism;
    Alcotest.test_case "prng bounds" `Quick test_prng_bounds;
    Alcotest.test_case "prng sample" `Quick test_prng_sample;
    Alcotest.test_case "prng split" `Quick test_prng_split_independent;
    Alcotest.test_case "solve exact" `Quick test_solve_exact;
    Alcotest.test_case "solve singular" `Quick test_solve_singular;
    Alcotest.test_case "polyfit exact" `Quick test_polyfit_exact;
    QCheck_alcotest.to_alcotest qcheck_solve;
    QCheck_alcotest.to_alcotest qcheck_json_roundtrip;
    Alcotest.test_case "json number text" `Quick test_json_numbers;
    Alcotest.test_case "json rejects malformed input" `Quick test_json_rejects;
    Alcotest.test_case "lru bound, recency and evictions" `Quick test_lru;
  ]
