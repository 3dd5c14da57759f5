(* Scaling properties of the sparse copy table.

   The table used to be a dense per-item [int array] over all clients;
   the sparse rewrite (compact holder vectors + per-site item indexes)
   must be observationally identical, so a reference model with the old
   dense shape is driven through random register/unregister/purge
   storms and every query compared after every step.  A separate check
   pins the purge-client cost: purging a site must not walk the whole
   table. *)

open Locking

(* --- Dense reference model ------------------------------------------------ *)

module Dense = struct
  type t = {
    clients : int;
    rows : (int, int array) Hashtbl.t; (* item -> per-client refcounts *)
  }

  let create ~clients = { clients; rows = Hashtbl.create 64 }

  let row t item =
    match Hashtbl.find_opt t.rows item with
    | Some r -> r
    | None ->
      let r = Array.make t.clients 0 in
      Hashtbl.replace t.rows item r;
      r

  let register t item ~client =
    let r = row t item in
    r.(client) <- r.(client) + 1

  let unregister t item ~client =
    match Hashtbl.find_opt t.rows item with
    | Some r when r.(client) > 0 -> r.(client) <- r.(client) - 1
    | Some _ | None -> ()

  let refs t item ~client =
    match Hashtbl.find_opt t.rows item with
    | Some r -> r.(client)
    | None -> 0

  let holders t item =
    match Hashtbl.find_opt t.rows item with
    | None -> []
    | Some r ->
      let acc = ref [] in
      for c = t.clients - 1 downto 0 do
        if r.(c) > 0 then acc := c :: !acc
      done;
      !acc

  let holders_except t item ~client =
    List.filter (fun c -> c <> client) (holders t item)

  let copies t =
    Hashtbl.fold
      (fun _ r acc ->
        acc + Array.fold_left (fun a n -> if n > 0 then a + 1 else a) 0 r)
      t.rows 0

  let client_copies t ~client =
    Hashtbl.fold
      (fun _ r acc -> if r.(client) > 0 then acc + 1 else acc)
      t.rows 0

  let purge_client t ~client =
    Hashtbl.fold
      (fun _ r acc ->
        if r.(client) > 0 then begin
          r.(client) <- 0;
          acc + 1
        end
        else acc)
      t.rows 0
end

(* --- Model equivalence under random storms -------------------------------- *)

type op = Register of int * int | Unregister of int * int | Purge of int

let op_gen ~clients ~items =
  QCheck.Gen.(
    frequency
      [
        (5, map2 (fun i c -> Register (i, c)) (int_bound (items - 1))
            (int_bound (clients - 1)));
        (4, map2 (fun i c -> Unregister (i, c)) (int_bound (items - 1))
            (int_bound (clients - 1)));
        (1, map (fun c -> Purge c) (int_bound (clients - 1)));
      ])

let show_op = function
  | Register (i, c) -> Printf.sprintf "Register(%d,%d)" i c
  | Unregister (i, c) -> Printf.sprintf "Unregister(%d,%d)" i c
  | Purge c -> Printf.sprintf "Purge(%d)" c

let prop_sparse_matches_dense =
  let clients = 7 and items = 9 in
  let arb =
    QCheck.make
      ~print:(fun ops -> String.concat "; " (List.map show_op ops))
      QCheck.Gen.(list_size (int_range 0 120) (op_gen ~clients ~items))
  in
  QCheck.Test.make ~name:"sparse copy table matches dense reference" ~count:300
    arb
    (fun ops ->
      let sparse = Copy_table.create ~width:1 ~clients in
      let dense = Dense.create ~clients in
      List.for_all
        (fun op ->
          (match op with
          | Register (i, c) ->
            Copy_table.register sparse i ~client:c;
            Dense.register dense i ~client:c
          | Unregister (i, c) ->
            Copy_table.unregister sparse i ~client:c;
            Dense.unregister dense i ~client:c
          | Purge c ->
            let got = Copy_table.purge_client sparse ~client:c in
            let want = Dense.purge_client dense ~client:c in
            if got <> want then
              QCheck.Test.fail_reportf "purge returned %d, expected %d" got
                want);
          (* Compare every observation the server makes. *)
          Copy_table.copies sparse = Dense.copies dense
          && List.for_all
               (fun c ->
                 Copy_table.client_copies sparse ~client:c
                 = Dense.client_copies dense ~client:c)
               (List.init clients Fun.id)
          && List.for_all
               (fun i ->
                 Copy_table.holders sparse i = Dense.holders dense i
                 && List.for_all
                      (fun c ->
                        Copy_table.refs sparse i ~slot:0 ~client:c
                        = Dense.refs dense i ~client:c
                        && Copy_table.holds sparse i ~client:c
                           = (Dense.refs dense i ~client:c > 0)
                        && Copy_table.holders_except sparse i ~client:c
                           = Dense.holders_except dense i ~client:c)
                      (List.init clients Fun.id))
               (List.init items Fun.id))
        ops)

(* --- Per-slot registrations match a per-object table ---------------------- *)

(* PS-OO registers a shipped page once, with one count per slot, where
   it used to register each available object on its own.  Drive a
   width-[objects_per_page] table and a per-object reference (the dense
   model, keyed on [page * width + slot]) through the same random
   sequences of the four operations PS-OO performs, and compare every
   per-object observation after every step, plus the zeroed journal:
   one (page, site) entry per operation that brought some slot of the
   page's registration to zero. *)

type slot_op =
  | Ship of int * int * Storage.Ids.Int_set.t (* page, client, skipped slots *)
  | Release of int * int * Storage.Ids.Int_set.t
  | Drop of int * int * int (* page, slot, client *)
  | Purge_site of int

let slot_op_gen ~clients ~pages ~width =
  QCheck.Gen.(
    let page = int_bound (pages - 1) and client = int_bound (clients - 1) in
    let mask =
      frequency
        [
          (2, return Storage.Ids.Int_set.empty);
          ( 3,
            map Storage.Ids.Int_set.of_list
              (list_size (int_bound width) (int_bound (width - 1))) );
        ]
    in
    frequency
      [
        (5, map3 (fun p c m -> Ship (p, c, m)) page client mask);
        (4, map3 (fun p c m -> Release (p, c, m)) page client mask);
        ( 4,
          map3 (fun p s c -> Drop (p, s, c)) page (int_bound (width - 1)) client
        );
        (1, map (fun c -> Purge_site c) client);
      ])

let show_mask m =
  String.concat "," (List.map string_of_int (Storage.Ids.Int_set.elements m))

let show_slot_op = function
  | Ship (p, c, m) -> Printf.sprintf "Ship(%d,%d,{%s})" p c (show_mask m)
  | Release (p, c, m) -> Printf.sprintf "Release(%d,%d,{%s})" p c (show_mask m)
  | Drop (p, s, c) -> Printf.sprintf "Drop(%d,%d,%d)" p s c
  | Purge_site c -> Printf.sprintf "Purge(%d)" c

let prop_slots_match_objects =
  let clients = 5 and pages = 4 in
  let width = Oodb_core.Config.default.Oodb_core.Config.objects_per_page in
  let arb =
    QCheck.make
      ~print:(fun ops -> String.concat "; " (List.map show_slot_op ops))
      QCheck.Gen.(
        list_size (int_range 0 80) (slot_op_gen ~clients ~pages ~width))
  in
  let all n = List.init n Fun.id in
  QCheck.Test.make ~name:"per-slot copy table matches per-object reference"
    ~count:200 arb (fun ops ->
      let table = Copy_table.create ~width ~clients in
      let objs = Dense.create ~clients in
      let obj p s = (p * width) + s in
      let kept m s = not (Storage.Ids.Int_set.mem s m) in
      List.for_all
        (fun op ->
          (* The pages whose registration at a site loses a slot's last
             reference in this step, from the reference's counts. *)
          let zeroes p c slots =
            if List.exists (fun s -> Dense.refs objs (obj p s) ~client:c = 1) slots
            then [ (p, c) ]
            else []
          in
          let before = Journal.length (Copy_table.zeroed table) in
          let expect_zeroed =
            match op with
            | Ship (p, c, m) ->
              Copy_table.register ~skip:m table p ~client:c;
              List.iter
                (fun s -> if kept m s then Dense.register objs (obj p s) ~client:c)
                (all width);
              []
            | Release (p, c, m) ->
              let z = zeroes p c (List.filter (kept m) (all width)) in
              Copy_table.unregister ~skip:m table p ~client:c;
              List.iter
                (fun s ->
                  if kept m s then Dense.unregister objs (obj p s) ~client:c)
                (all width);
              z
            | Drop (p, s, c) ->
              let z = zeroes p c [ s ] in
              Copy_table.unregister_slot table p ~slot:s ~client:c;
              Dense.unregister objs (obj p s) ~client:c;
              z
            | Purge_site c ->
              let z =
                List.concat_map
                  (fun p ->
                    if
                      List.exists
                        (fun s -> Dense.refs objs (obj p s) ~client:c > 0)
                        (all width)
                    then [ (p, c) ]
                    else [])
                  (all pages)
              in
              let got = Copy_table.purge_client table ~client:c in
              let want = Dense.purge_client objs ~client:c in
              if got <> want then
                QCheck.Test.fail_reportf "purge returned %d, expected %d" got
                  want;
              z
          in
          let j = Copy_table.zeroed table in
          let logged =
            List.init
              (Journal.length j - before)
              (fun i -> (Journal.item j (before + i), Journal.site j (before + i)))
          in
          if List.sort compare logged <> List.sort compare expect_zeroed then
            QCheck.Test.fail_reportf "%s: zeroed logged %d entries, expected %d"
              (show_slot_op op) (List.length logged)
              (List.length expect_zeroed);
          Copy_table.copies table = Dense.copies objs
          && List.for_all
               (fun c ->
                 Copy_table.client_copies table ~client:c
                 = Dense.client_copies objs ~client:c)
               (all clients)
          && List.for_all
               (fun p ->
                 let holding =
                   List.filter
                     (fun c ->
                       List.exists
                         (fun s -> Dense.refs objs (obj p s) ~client:c > 0)
                         (all width))
                     (all clients)
                 in
                 Copy_table.holders table p = holding
                 && List.for_all
                      (fun c ->
                        Copy_table.holds table p ~client:c
                        = List.mem c holding)
                      (all clients)
                 && List.for_all
                      (fun s ->
                        Copy_table.holders ~slot:s table p
                        = Dense.holders objs (obj p s)
                        && List.for_all
                             (fun c ->
                               let n = Dense.refs objs (obj p s) ~client:c in
                               Copy_table.refs table p ~slot:s ~client:c = n
                               && Copy_table.holds ~slot:s table p ~client:c
                                  = (n > 0)
                               && Copy_table.holders_except ~slot:s table p
                                    ~client:c
                                  = Dense.holders_except objs (obj p s)
                                      ~client:c)
                             (all clients))
                      (all width))
               (all pages))
        ops)

(* --- Purge cost: no full-table walk --------------------------------------- *)

(* A site's purge must cost O(that site's copies), independent of the
   table size.  Build a table with 200k rows held by other sites, then
   purge a site holding nothing many times over: each purge is O(1), so
   even a slow CI box finishes far inside the bound, while a dense
   full-table walk (2 * 10^8 row visits here) cannot. *)
let test_purge_cost_independent_of_table () =
  let rows = 200_000 and purges = 1_000 in
  let ct = Copy_table.create ~width:1 ~clients:4 in
  for i = 0 to rows - 1 do
    Copy_table.register ct i ~client:(1 + (i mod 3))
  done;
  (* Client 0 holds a handful; the first purge returns them, the rest
     purge an empty site. *)
  for i = 0 to 9 do
    Copy_table.register ct i ~client:0
  done;
  let t0 = Unix.gettimeofday () in
  let first = Copy_table.purge_client ct ~client:0 in
  for _ = 2 to purges do
    ignore (Copy_table.purge_client ct ~client:0 : int)
  done;
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check int) "first purge returns the site's copies" 10 first;
  Alcotest.(check int) "table untouched for other sites" rows
    (Copy_table.copies ct);
  if dt > 1.0 then
    Alcotest.failf
      "%d purges over a %d-row table took %.2fs — purge_client is walking \
       the table"
      purges rows dt

let suite =
  [
    QCheck_alcotest.to_alcotest prop_sparse_matches_dense;
    Alcotest.test_case "purge cost independent of table size" `Quick
      test_purge_cost_independent_of_table;
    QCheck_alcotest.to_alcotest prop_slots_match_objects;
  ]
