(* Sparse holder representation.  The dense version kept an
   [int array] of size [num_clients] per item, which makes every
   callback collection O(clients) and a 10k-client run quadratic in
   population.  Here each item row is a compact ascending vector of
   holder sites, and each site keeps an item -> registration index, so:

     holders / holders_except   O(holders of that item)
     refs / holds               O(1) expected (site-index lookup)
     client_copies              O(that site's registrations)
     purge_client               O(that site's registrations)

   A registration is one [int array] of [width + 1] cells: the count of
   each slot, then the number of slots whose count is positive.  The
   row and the site index share it, so a slot query from either side
   is one array read.  A registration exists exactly while some slot
   count is positive.

   The ascending order of [holders] is load-bearing: callback fan-out
   iterates it, so it determines message order and therefore the RNG
   draw sequence.  The sorted vector reproduces the dense scan's
   ascending order exactly, and a slot query filters it in place.

   [zeroed] logs every (item, site) pair one of whose slot counts
   reaches zero, from [unregister], [unregister_slot] and
   [purge_client] alike: these are the only ways a count falls, so the
   audit's coverage check re-checks just those pairs (see Audit). *)

open Storage

type reg = int array

type row = {
  mutable cids : int array; (* holder sites, ascending; first [len] live *)
  mutable regs : reg array; (* the holders' registrations, parallel *)
  mutable len : int;
}

type 'item t = {
  clients : int;
  width : int;
  rows : ('item, row) Hashtbl.t;
  (* Per site, item -> registration.  Allocated lazily: most sites
     never touch most servers' tables. *)
  index : ('item, reg) Hashtbl.t option array;
  mutable total : int; (* (item, slot, site) triples with count > 0 *)
  zeroed : 'item Journal.t;
}

let create ~width ~clients =
  if clients <= 0 then invalid_arg "Copy_table.create: clients";
  if width <= 0 then invalid_arg "Copy_table.create: width";
  {
    clients;
    width;
    rows = Hashtbl.create 1024;
    index = Array.make clients None;
    total = 0;
    zeroed = Journal.create ();
  }

let width t = t.width

let check_client t client =
  if client < 0 || client >= t.clients then
    invalid_arg "Copy_table: client out of range"

let check_slot t slot =
  if slot < 0 || slot >= t.width then invalid_arg "Copy_table: slot out of range"

let idx t client =
  match t.index.(client) with
  | Some h -> h
  | None ->
    let h = Hashtbl.create 16 in
    t.index.(client) <- Some h;
    h

let find_reg t item client =
  match t.index.(client) with None -> None | Some h -> Hashtbl.find_opt h item

(* First position whose cid is >= [cid]. *)
let lower_bound row cid =
  let lo = ref 0 and hi = ref row.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if row.cids.(mid) < cid then lo := mid + 1 else hi := mid
  done;
  !lo

let row_insert row cid reg =
  let pos = lower_bound row cid in
  if row.len = Array.length row.cids then begin
    let cap = max 2 (2 * row.len) in
    let a = Array.make cap 0 and r = Array.make cap [||] in
    Array.blit row.cids 0 a 0 pos;
    Array.blit row.cids pos a (pos + 1) (row.len - pos);
    Array.blit row.regs 0 r 0 pos;
    Array.blit row.regs pos r (pos + 1) (row.len - pos);
    row.cids <- a;
    row.regs <- r
  end
  else begin
    Array.blit row.cids pos row.cids (pos + 1) (row.len - pos);
    Array.blit row.regs pos row.regs (pos + 1) (row.len - pos)
  end;
  row.cids.(pos) <- cid;
  row.regs.(pos) <- reg;
  row.len <- row.len + 1

let row_remove row cid =
  let pos = lower_bound row cid in
  assert (pos < row.len && row.cids.(pos) = cid);
  Array.blit row.cids (pos + 1) row.cids pos (row.len - pos - 1);
  Array.blit row.regs (pos + 1) row.regs pos (row.len - pos - 1);
  row.len <- row.len - 1;
  (* Do not keep a dropped registration reachable. *)
  row.regs.(row.len) <- [||]

(* Drop a registration whose last positive slot fell to zero. *)
let remove_reg t h item ~client =
  Hashtbl.remove h item;
  let row = Hashtbl.find t.rows item in
  row_remove row client;
  if row.len = 0 then Hashtbl.remove t.rows item

let register ?(skip = Ids.Int_set.empty) t item ~client =
  check_client t client;
  let h = idx t client in
  let w = t.width in
  let reg, fresh =
    match Hashtbl.find_opt h item with
    | Some reg -> (reg, false)
    | None -> (Array.make (w + 1) 0, true)
  in
  for slot = 0 to w - 1 do
    if not (Ids.Int_set.mem slot skip) then begin
      let n = reg.(slot) in
      reg.(slot) <- n + 1;
      if n = 0 then begin
        reg.(w) <- reg.(w) + 1;
        t.total <- t.total + 1
      end
    end
  done;
  if fresh && reg.(w) > 0 then begin
    Hashtbl.replace h item reg;
    let row =
      match Hashtbl.find_opt t.rows item with
      | Some r -> r
      | None ->
        let r = { cids = Array.make 2 0; regs = Array.make 2 [||]; len = 0 } in
        Hashtbl.replace t.rows item r;
        r
    in
    row_insert row client reg
  end

(* -1 on [slot]; true when its count reached zero. *)
let release t reg slot =
  let n = reg.(slot) in
  if n = 0 then false
  else begin
    reg.(slot) <- n - 1;
    if n = 1 then begin
      reg.(t.width) <- reg.(t.width) - 1;
      t.total <- t.total - 1
    end;
    n = 1
  end

let unregister ?(skip = Ids.Int_set.empty) t item ~client =
  check_client t client;
  match t.index.(client) with
  | None -> ()
  | Some h -> (
    match Hashtbl.find_opt h item with
    | None -> ()
    | Some reg ->
      let zeroed = ref false in
      for slot = 0 to t.width - 1 do
        if (not (Ids.Int_set.mem slot skip)) && release t reg slot then
          zeroed := true
      done;
      if !zeroed then begin
        Journal.push t.zeroed item ~site:client;
        if reg.(t.width) = 0 then remove_reg t h item ~client
      end)

let unregister_slot t item ~slot ~client =
  check_client t client;
  check_slot t slot;
  match t.index.(client) with
  | None -> ()
  | Some h -> (
    match Hashtbl.find_opt h item with
    | None -> ()
    | Some reg ->
      if release t reg slot then begin
        Journal.push t.zeroed item ~site:client;
        if reg.(t.width) = 0 then remove_reg t h item ~client
      end)

let refs t item ~slot ~client =
  check_client t client;
  check_slot t slot;
  match find_reg t item client with Some reg -> reg.(slot) | None -> 0

let first_uncovered ?(skip = Ids.Int_set.empty) t item ~client =
  check_client t client;
  let reg = find_reg t item client in
  let rec from slot =
    if slot = t.width then None
    else
      let held = match reg with Some r -> r.(slot) > 0 | None -> false in
      if held || Ids.Int_set.mem slot skip then from (slot + 1) else Some slot
  in
  from 0

(* An index entry exists exactly while some count is positive; [mem]
   answers the whole-registration query without allocating. *)
let holds ?slot t item ~client =
  check_client t client;
  match slot with
  | None -> (
    match t.index.(client) with None -> false | Some h -> Hashtbl.mem h item)
  | Some slot -> refs t item ~slot ~client > 0

(* One pass, descending so the list comes out ascending, keeping the
   holders of [slot] (all of them without one) other than [except]. *)
let holders_of ?slot t item ~except =
  match Hashtbl.find_opt t.rows item with
  | None -> []
  | Some row ->
    (match slot with Some s -> check_slot t s | None -> ());
    let out = ref [] in
    for i = row.len - 1 downto 0 do
      let c = row.cids.(i) in
      let holds =
        match slot with None -> true | Some s -> row.regs.(i).(s) > 0
      in
      if c <> except && holds then out := c :: !out
    done;
    !out

let holders ?slot t item = holders_of ?slot t item ~except:(-1)

let holders_except ?slot t item ~client = holders_of ?slot t item ~except:client

let copies t = t.total

let client_copies t ~client =
  check_client t client;
  match t.index.(client) with
  | None -> 0
  | Some h -> Hashtbl.fold (fun _ reg acc -> acc + reg.(t.width)) h 0

let purge_client t ~client =
  check_client t client;
  match t.index.(client) with
  | None -> 0
  | Some h ->
    let n = ref 0 in
    Hashtbl.iter
      (fun item reg ->
        n := !n + reg.(t.width);
        Journal.push t.zeroed item ~site:client;
        let row = Hashtbl.find t.rows item in
        row_remove row client;
        if row.len = 0 then Hashtbl.remove t.rows item)
      h;
    t.total <- t.total - !n;
    t.index.(client) <- None;
    !n

let zeroed t = t.zeroed
