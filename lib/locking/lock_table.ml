open Lock_types
open Simcore

type 'item waiter = {
  w_txn : txn;
  kind : request_kind;
  waiter : grant Proc.waiter;
}

type 'item entry = {
  mutable lock_holder : txn option;
  queue : 'item waiter Queue.t; (* FIFO order, head first *)
}

type 'item t = {
  waits_for : Waits_for.t;
  lock_name : string;
  entries : ('item, 'item entry) Hashtbl.t;
  txn_locks : (txn, 'item list) Hashtbl.t;
  mutable blocked_total : int;
}

let create ~waits_for ~lock_name =
  {
    waits_for;
    lock_name;
    entries = Hashtbl.create 256;
    txn_locks = Hashtbl.create 64;
    blocked_total = 0;
  }

let entry t item =
  match Hashtbl.find_opt t.entries item with
  | Some e -> e
  | None ->
    let e = { lock_holder = None; queue = Queue.create () } in
    Hashtbl.replace t.entries item e;
    e

let entry_opt t item = Hashtbl.find_opt t.entries item

let maybe_gc t item e =
  if e.lock_holder = None && Queue.is_empty e.queue then
    Hashtbl.remove t.entries item

let record_lock t item txn =
  let existing =
    match Hashtbl.find_opt t.txn_locks txn with Some l -> l | None -> []
  in
  Hashtbl.replace t.txn_locks txn (item :: existing)

let forget_lock t item txn =
  match Hashtbl.find_opt t.txn_locks txn with
  | None -> ()
  | Some l ->
    let l = List.filter (fun i -> i <> item) l in
    if l = [] then Hashtbl.remove t.txn_locks txn
    else Hashtbl.replace t.txn_locks txn l

(* Blockers of a waiter: the current foreign holder plus foreign Lock
   requests queued ahead of it (FIFO order means it waits on those too). *)
let blockers_of e w =
  let ahead = ref [] in
  (try
     Queue.iter
       (fun w' ->
         if w' == w then raise Exit
         else if w'.kind = Lock && w'.w_txn <> w.w_txn then
           ahead := w'.w_txn :: !ahead)
       e.queue
   with Exit -> ());
  (match e.lock_holder with
  | Some h when h <> w.w_txn -> h :: !ahead
  | Some _ | None -> !ahead)

let refresh_edges t e =
  Queue.iter
    (fun w -> Waits_for.update_blockers t.waits_for w.w_txn (blockers_of e w))
    e.queue

(* Grant the longest grantable prefix of the queue. *)
let rec process_queue t item e =
  match Queue.peek_opt e.queue with
  | None -> maybe_gc t item e
  | Some w ->
    let compatible =
      match e.lock_holder with None -> true | Some h -> h = w.w_txn
    in
    if not compatible then refresh_edges t e
    else begin
      ignore (Queue.pop e.queue);
      if w.kind = Lock && e.lock_holder <> Some w.w_txn then begin
        e.lock_holder <- Some w.w_txn;
        record_lock t item w.w_txn
      end;
      Waits_for.clear_wait t.waits_for w.w_txn;
      Proc.resume w.waiter (Ok Granted);
      process_queue t item e
    end

let grantable_now e ~txn =
  Queue.is_empty e.queue
  && (match e.lock_holder with None -> true | Some h -> h = txn)

let try_acquire t item ~txn ~kind =
  let e = entry t item in
  if grantable_now e ~txn then begin
    if kind = Lock && e.lock_holder <> Some txn then begin
      e.lock_holder <- Some txn;
      record_lock t item txn
    end
    else maybe_gc t item e;
    true
  end
  else begin
    maybe_gc t item e;
    false
  end

let acquire t item ~txn ~kind =
  let e = entry t item in
  if grantable_now e ~txn then begin
    if kind = Lock && e.lock_holder <> Some txn then begin
      e.lock_holder <- Some txn;
      record_lock t item txn
    end
    else maybe_gc t item e;
    Granted
  end
  else begin
    t.blocked_total <- t.blocked_total + 1;
    Proc.suspend (fun waiter ->
        let w = { w_txn = txn; kind; waiter } in
        Queue.add w e.queue;
        let cancel () =
          (* Cancellation is rare (deadlock victim / crash), so an O(n)
             queue rebuild here is fine; the hot path above is O(1). *)
          let keep = Queue.create () in
          Queue.iter (fun w' -> if not (w' == w) then Queue.add w' keep) e.queue;
          Queue.clear e.queue;
          Queue.transfer keep e.queue;
          Proc.resume w.waiter (Ok Aborted);
          (* Removing a queued request may unblock its successors. *)
          process_queue t item e
        in
        Waits_for.set_wait ~info:("lock:" ^ t.lock_name) t.waits_for txn
          ~blockers:(blockers_of e w) ~cancel;
        ignore (Waits_for.check_deadlock t.waits_for ~from:txn))
  end

let holder t item =
  match entry_opt t item with Some e -> e.lock_holder | None -> None

let held_by t item ~txn = holder t item = Some txn

let conflicts t item ~txn =
  match holder t item with Some h -> h <> txn | None -> false

let release t item ~txn =
  match entry_opt t item with
  | None -> ()
  | Some e ->
    if e.lock_holder = Some txn then begin
      e.lock_holder <- None;
      forget_lock t item txn;
      process_queue t item e
    end

let release_all t ~txn =
  match Hashtbl.find_opt t.txn_locks txn with
  | None -> ()
  | Some items ->
    Hashtbl.remove t.txn_locks txn;
    List.iter
      (fun item ->
        match entry_opt t item with
        | Some e when e.lock_holder = Some txn ->
          e.lock_holder <- None;
          process_queue t item e
        | Some _ | None -> ())
      items

let locks_of t ~txn =
  match Hashtbl.find_opt t.txn_locks txn with Some l -> l | None -> []

let force_grant t item ~txn =
  let e = entry t item in
  match e.lock_holder with
  | Some h when h <> txn ->
    invalid_arg
      (Printf.sprintf "Lock_table(%s).force_grant: lock held elsewhere"
         t.lock_name)
  | Some _ -> ()
  | None ->
    e.lock_holder <- Some txn;
    record_lock t item txn

let lock_count t =
  Hashtbl.fold
    (fun _ e acc -> if e.lock_holder <> None then acc + 1 else acc)
    t.entries 0

let waiter_count t =
  Hashtbl.fold (fun _ e acc -> acc + Queue.length e.queue) t.entries 0

let waits t = t.blocked_total

let iter_holders t f =
  Hashtbl.iter
    (fun item e ->
      match e.lock_holder with Some h -> f item h | None -> ())
    t.entries

let iter_waiters t f =
  Hashtbl.iter
    (fun item e -> Queue.iter (fun w -> f item w.w_txn) e.queue)
    t.entries

let dump_waiting t show =
  Hashtbl.fold
    (fun item e acc ->
      let desc =
        Printf.sprintf "%s holder=%s queue=[%s]" (show item)
          (match e.lock_holder with
          | Some h -> string_of_int h
          | None -> "-")
          (String.concat ";"
             (List.rev
                (Queue.fold
                   (fun acc w ->
                     Printf.sprintf "%d%s" w.w_txn
                       (match w.kind with Lock -> "L" | Probe -> "P")
                     :: acc)
                   [] e.queue)))
      in
      Queue.fold (fun acc w -> (w.w_txn, desc) :: acc) acc e.queue)
    t.entries []
