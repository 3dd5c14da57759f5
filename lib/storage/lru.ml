(* Doubly-linked recency list plus a hash table from key to node. *)

type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable prev : ('k, 'v) node option; (* towards most recently used *)
  mutable next : ('k, 'v) node option; (* towards least recently used *)
}

type ('k, 'v) t = {
  cap : int;
  table : ('k, ('k, 'v) node) Hashtbl.t;
  mutable head : ('k, 'v) node option; (* most recently used *)
  mutable tail : ('k, 'v) node option; (* least recently used *)
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Lru.create: capacity must be positive";
  (* Start the table at the stdlib minimum (16 buckets) and let it grow
     by resizing: most clients of a large population never cache
     anything, and every bucket is paid per client.  Nothing observable
     depends on the table's size — iteration walks the recency list,
     never Hashtbl order. *)
  { cap = capacity; table = Hashtbl.create 1; head = None; tail = None }

let capacity t = t.cap
let size t = Hashtbl.length t.table

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

let touch_node t node =
  if t.head != Some node then begin
    unlink t node;
    push_front t node
  end

let find t k =
  match Hashtbl.find_opt t.table k with
  | None -> None
  | Some node ->
    touch_node t node;
    Some node.value

let peek t k =
  match Hashtbl.find_opt t.table k with
  | None -> None
  | Some node -> Some node.value

let mem t k = Hashtbl.mem t.table k

let touch t k =
  match Hashtbl.find_opt t.table k with
  | None -> ()
  | Some node -> touch_node t node

let evict_lru t =
  match t.tail with
  | None -> None
  | Some node ->
    unlink t node;
    Hashtbl.remove t.table node.key;
    Some (node.key, node.value)

let add t k v =
  match Hashtbl.find_opt t.table k with
  | Some node ->
    node.value <- v;
    touch_node t node;
    None
  | None ->
    let node = { key = k; value = v; prev = None; next = None } in
    Hashtbl.replace t.table k node;
    push_front t node;
    if Hashtbl.length t.table > t.cap then evict_lru t else None

let remove t k =
  match Hashtbl.find_opt t.table k with
  | None -> None
  | Some node ->
    unlink t node;
    Hashtbl.remove t.table k;
    Some node.value

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
