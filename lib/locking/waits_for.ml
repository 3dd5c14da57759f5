open Lock_types

type wait = { mutable blockers : txn list; cancel : unit -> unit; info : string }

type t = {
  waits : (txn, wait) Hashtbl.t;
  starts : (txn, float) Hashtbl.t;
  mutable deadlock_count : int;
  (* Linked cluster of per-server graphs.  [[||]] means solo (the
     classic single-graph topology); [link] points every member at the
     shared array, itself included.  Cycle detection always traverses
     the union, so a wait registered at one server is visible to the
     others — the designated-coordinator idealization of distributed
     deadlock detection.  The [on_edge] hook fires whenever this graph
     gains an edge, letting the simulation charge for the edge-exchange
     control message that a real coordinator would receive. *)
  mutable peers : t array;
  mutable on_edge : (txn -> unit) option;
}

let create () =
  {
    waits = Hashtbl.create 64;
    starts = Hashtbl.create 64;
    deadlock_count = 0;
    peers = [||];
    on_edge = None;
  }

let link graphs = Array.iter (fun g -> g.peers <- graphs) graphs
let set_exchange_hook t f = t.on_edge <- Some f

(* Union lookup: the graph (if any) holding [txn]'s pending wait.  A
   transaction blocks on at most one request at a time, so at most one
   member of the cluster has an entry.  A loop, not a closure: this
   runs on every wait operation and every audit edge. *)
let rec owner_from peers txn i =
  if i = Array.length peers then None
  else if Hashtbl.mem peers.(i).waits txn then Some peers.(i)
  else owner_from peers txn (i + 1)

let wait_owner t txn =
  if Array.length t.peers = 0 then
    if Hashtbl.mem t.waits txn then Some t else None
  else owner_from t.peers txn 0

let find_wait t txn =
  match wait_owner t txn with
  | None -> None
  | Some g -> Hashtbl.find_opt g.waits txn

let begin_txn t txn ~start = Hashtbl.replace t.starts txn start

let end_txn t txn =
  assert (not (Hashtbl.mem t.waits txn));
  Hashtbl.remove t.starts txn

let fire_edge t txn = match t.on_edge with None -> () | Some f -> f txn

let set_wait ?(info = "") t txn ~blockers ~cancel =
  Hashtbl.replace t.waits txn { blockers; cancel; info };
  fire_edge t txn

let update_blockers t txn blockers =
  match find_wait t txn with
  | None -> ()
  | Some w -> w.blockers <- blockers

let add_blocker t txn blocker =
  match wait_owner t txn with
  | None -> ()
  | Some g -> (
    match Hashtbl.find_opt g.waits txn with
    | None -> ()
    | Some w ->
      if not (List.mem blocker w.blockers) then begin
        w.blockers <- blocker :: w.blockers;
        fire_edge g txn
      end)

let clear_wait t txn =
  match wait_owner t txn with
  | None -> ()
  | Some g -> Hashtbl.remove g.waits txn

let is_waiting t txn = wait_owner t txn <> None

(* Depth-first search for a path from a blocker of [from] back to
   [from].  Only waiting transactions have outgoing edges, so the search
   space is the set of blocked transactions (small: at most one wait per
   client).  Edges are looked up across the whole cluster, so a cycle
   spanning two partitions — invisible to either server's local graph —
   is still found.  Returns the cycle as a list of transactions. *)
let find_cycle t ~from =
  let visited = Hashtbl.create 16 in
  let rec dfs u path =
    if u = from then Some path
    else if Hashtbl.mem visited u then None
    else begin
      Hashtbl.add visited u ();
      match find_wait t u with
      | None -> None
      | Some w -> dfs_list w.blockers (u :: path)
    end
  and dfs_list vs path =
    match vs with
    | [] -> None
    | v :: rest -> (
      match dfs v path with Some c -> Some c | None -> dfs_list rest path)
  in
  match find_wait t from with
  | None -> None
  | Some w -> dfs_list w.blockers [ from ]

let start_time t txn =
  match Hashtbl.find_opt t.starts txn with Some s -> s | None -> neg_infinity

(* The youngest transaction (latest start) loses.  Start times are
   replicated on every member of the cluster, so the local table is
   authoritative. *)
let pick_victim t cycle =
  List.fold_left
    (fun best txn ->
      if start_time t txn > start_time t best then txn else best)
    (List.hd cycle) (List.tl cycle)

let cancel_wait t victim =
  match wait_owner t victim with
  | None -> ()
  | Some g -> (
    match Hashtbl.find_opt g.waits victim with
    | None -> ()
    | Some w ->
      Hashtbl.remove g.waits victim;
      w.cancel ())

let check_deadlock t ~from =
  let victims = ref 0 in
  let continue = ref true in
  while !continue do
    match find_cycle t ~from with
    | None -> continue := false
    | Some cycle ->
      let victim = pick_victim t cycle in
      (* The victim count lives on the graph holding the victim's wait:
         per-server deadlock attribution, summed by the runner. *)
      let g = match wait_owner t victim with Some g -> g | None -> t in
      g.deadlock_count <- g.deadlock_count + 1;
      incr victims;
      cancel_wait t victim
  done;
  !victims

let deadlocks t = t.deadlock_count
let waiting_count t = Hashtbl.length t.waits
let is_active t txn = Hashtbl.mem t.starts txn

(* Audit helper: one depth-first search over the whole cluster, rooted
   at every waiting transaction.  Colours are shared across the roots:
   a transaction is "on stack" while the search is below it and "done"
   once every path out of it is known to be acyclic, so each wait and
   each edge is visited once: O(waits + edges).  An edge into an on-stack
   transaction closes a cycle; the witness is the stack back to it,
   oriented like [find_cycle]'s.  Transactions that do not wait have no
   outgoing edges and are never coloured. *)
type colour = On_stack | Done

let no_waits g = Hashtbl.length g.waits = 0

let any_cycle t =
  let solo = Array.length t.peers = 0 in
  let nothing_waits =
    if solo then no_waits t else Array.for_all no_waits t.peers
  in
  if nothing_waits then None
  else begin
    let members = if solo then [| t |] else t.peers in
    let colour = Hashtbl.create 64 in
    let rec visit u w path =
      Hashtbl.replace colour u On_stack;
      match visit_blockers w.blockers (u :: path) with
      | Some _ as found -> found
      | None ->
        Hashtbl.replace colour u Done;
        None
    and visit_blockers vs path =
      match vs with
      | [] -> None
      | v :: rest -> (
        match Hashtbl.find_opt colour v with
        | Some On_stack ->
          let rec upto = function
            | [] -> []
            | x :: xs -> if x = v then [ x ] else x :: upto xs
          in
          Some (upto path)
        | Some Done -> visit_blockers rest path
        | None -> (
          match find_wait t v with
          | None -> visit_blockers rest path
          | Some w -> (
            match visit v w path with
            | Some c -> Some c
            | None -> visit_blockers rest path)))
    in
    Array.fold_left
      (fun acc g ->
        Hashtbl.fold
          (fun u w acc ->
            match acc with
            | Some _ -> acc
            | None -> if Hashtbl.mem colour u then None else visit u w [])
          g.waits acc)
      None members
  end

let dump t =
  Hashtbl.fold (fun txn w acc -> (txn, w.blockers, w.info) :: acc) t.waits []
