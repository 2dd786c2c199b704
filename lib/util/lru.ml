(* Recency is a logical clock stamped on every hit and insertion; the
   victim is the entry with the smallest stamp. Stamps are unique, so the
   eviction order is deterministic. Eviction scans the table, which is
   cheap at the few hundred entries the caches hold. *)

type 'v entry = { value : 'v; mutable last_use : int }

type ('k, 'v) t = {
  table : ('k, 'v entry) Hashtbl.t;
  mutable capacity : int;
  mutable tick : int;
  mutable evictions : int;
}

let check_capacity n =
  if n < 1 then
    invalid_arg (Printf.sprintf "Lru: capacity = %d must be >= 1" n)

let create capacity =
  check_capacity capacity;
  { table = Hashtbl.create 64; capacity; tick = 0; evictions = 0 }

let stamp t =
  t.tick <- t.tick + 1;
  t.tick

let find t k =
  match Hashtbl.find_opt t.table k with
  | Some e ->
      e.last_use <- stamp t;
      Some e.value
  | None -> None

let evict_to_capacity t =
  while Hashtbl.length t.table > t.capacity do
    let oldest =
      Hashtbl.fold
        (fun k e acc ->
          match acc with
          | Some (_, lru) when lru <= e.last_use -> acc
          | _ -> Some (k, e.last_use))
        t.table None
    in
    match oldest with
    | Some (k, _) ->
        Hashtbl.remove t.table k;
        t.evictions <- t.evictions + 1
    | None -> ()
  done

let add t k v =
  Hashtbl.replace t.table k { value = v; last_use = stamp t };
  evict_to_capacity t

let remove t k = Hashtbl.remove t.table k

let set_capacity t n =
  check_capacity n;
  t.capacity <- n;
  evict_to_capacity t

let clear t = Hashtbl.reset t.table
let iter f t = Hashtbl.iter (fun k e -> f k e.value) t.table
let length t = Hashtbl.length t.table
let capacity t = t.capacity
let evictions t = t.evictions
