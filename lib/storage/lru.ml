(* Doubly-linked recency list plus a hash table from key to node. *)

type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable prev : ('k, 'v) node option; (* towards most recently used *)
  mutable next : ('k, 'v) node option; (* towards least recently used *)
}

type ('k, 'v) t = {
  cap : int;
  mutable table : ('k, ('k, 'v) node) Hashtbl.t option;
      (* built on the first insert: most clients of a large population
         never cache anything, and an idle cache should cost a record,
         not a 16-bucket table *)
  mutable head : ('k, 'v) node option; (* most recently used *)
  mutable tail : ('k, 'v) node option; (* least recently used *)
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Lru.create: capacity must be positive";
  { cap = capacity; table = None; head = None; tail = None }

let capacity t = t.cap
let size t = match t.table with None -> 0 | Some tbl -> Hashtbl.length tbl

(* The table starts at the stdlib minimum (16 buckets) and grows by
   resizing.  Nothing observable depends on its size: iteration walks
   the recency list, never Hashtbl order. *)
let table t =
  match t.table with
  | Some tbl -> tbl
  | None ->
    let tbl = Hashtbl.create 1 in
    t.table <- Some tbl;
    tbl

let find_node t k =
  match t.table with None -> None | Some tbl -> Hashtbl.find_opt tbl k

let unlink t node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> t.head <- node.next);
  (match node.next with
  | Some n -> n.prev <- node.prev
  | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.next <- t.head;
  node.prev <- None;
  (match t.head with Some h -> h.prev <- Some node | None -> t.tail <- Some node);
  t.head <- Some node

(* Already the head: nothing to relink.  Matched physically — a
   comparison against [Some node] would allocate a fresh block that is
   never [==] to [t.head]. *)
let touch_node t node =
  match t.head with
  | Some h when h == node -> ()
  | Some _ | None ->
    unlink t node;
    push_front t node

let find t k =
  match find_node t k with
  | None -> None
  | Some node ->
    touch_node t node;
    Some node.value

let peek t k =
  match find_node t k with None -> None | Some node -> Some node.value

let mem t k = match t.table with None -> false | Some tbl -> Hashtbl.mem tbl k

(* [Hashtbl.find] rather than [find_opt]: a touch allocates nothing. *)
let touch t k =
  match t.table with
  | None -> ()
  | Some tbl -> (
    match Hashtbl.find tbl k with
    | node -> touch_node t node
    | exception Not_found -> ())

let evict_lru t tbl =
  match t.tail with
  | None -> None
  | Some node ->
    unlink t node;
    Hashtbl.remove tbl node.key;
    Some (node.key, node.value)

let add t k v =
  match find_node t k with
  | Some node ->
    node.value <- v;
    touch_node t node;
    None
  | None ->
    let tbl = table t in
    let node = { key = k; value = v; prev = None; next = None } in
    Hashtbl.replace tbl k node;
    push_front t node;
    if Hashtbl.length tbl > t.cap then evict_lru t tbl else None

let remove t k =
  match t.table with
  | None -> None
  | Some tbl -> (
    match Hashtbl.find_opt tbl k with
    | None -> None
    | Some node ->
      unlink t node;
      Hashtbl.remove tbl k;
      Some node.value)

let iter t f =
  let rec go = function
    | None -> ()
    | Some node ->
      (* Capture next before f, in case f mutates the cache via value. *)
      let next = node.next in
      f node.key node.value;
      go next
  in
  go t.head

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun k v -> acc := f !acc k v);
  !acc

let to_list t = List.rev (fold t ~init:[] ~f:(fun acc k v -> (k, v) :: acc))
