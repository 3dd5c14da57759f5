open Oodb_core

let default_jobs () = max 1 (Domain.recommended_domain_count () - 1)

type failure = { index : int; description : string; error : exn }

exception Sweep_failed of failure list

let () =
  Printexc.register_printer (function
    | Sweep_failed failures ->
      Some
        (Printf.sprintf "Sweep_failed: %d job(s) failed\n%s"
           (List.length failures)
           (String.concat "\n"
              (List.map
                 (fun f ->
                   Printf.sprintf "  [%d] %s: %s" f.index f.description
                     (Printexc.to_string f.error))
                 failures)))
    | _ -> None)

let default_describe _ = ""

(* Each item either yields a result or records an attributed failure;
   one bad cell must not discard the rest of a long sweep, and the
   error must say which cell died, not just how. *)
let apply ~describe ~failures ~failures_lock f i x =
  match f x with
  | y -> Some y
  | exception error ->
    let description =
      let d = try describe x with _ -> "" in
      if d = "" then Printf.sprintf "item %d" i else d
    in
    Mutex.lock failures_lock;
    failures := { index = i; description; error } :: !failures;
    Mutex.unlock failures_lock;
    None

let finish ~failures results =
  match List.sort (fun a b -> compare a.index b.index) !failures with
  | [] ->
    Array.to_list
      (Array.map
         (function
           | Some y -> y
           | None -> invalid_arg "Pool.map: missing result")
         results)
  | fs -> raise (Sweep_failed fs)

let sequential_map ~describe ?progress f items =
  let items_a = Array.of_list items in
  let n = Array.length items_a in
  let results = Array.make n None in
  let failures = ref [] in
  let failures_lock = Mutex.create () in
  for i = 0 to n - 1 do
    let x = items_a.(i) in
    match apply ~describe ~failures ~failures_lock f i x with
    | Some y as r ->
      results.(i) <- r;
      Option.iter (fun p -> p x y) progress
    | None -> ()
  done;
  finish ~failures results

let parallel_map ~workers ~describe ?progress f items =
  let items_a = Array.of_list items in
  let n = Array.length items_a in
  let results = Array.make n None in
  let failures = ref [] in
  let failures_lock = Mutex.create () in
  let next = Atomic.make 0 in
  let progress_lock = Mutex.create () in
  let report x y =
    Option.iter
      (fun p ->
        Mutex.lock progress_lock;
        Fun.protect ~finally:(fun () -> Mutex.unlock progress_lock) (fun () ->
            p x y))
      progress
  in
  let worker () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let x = items_a.(i) in
        (match apply ~describe ~failures ~failures_lock f i x with
        | Some y as r ->
          results.(i) <- r;
          report x y
        | None -> ());
        loop ()
      end
    in
    loop ()
  in
  let domains = Array.init (workers - 1) (fun _ -> Domain.spawn worker) in
  (* The calling domain is worker number [workers]; per-item failures
     are captured above, so nothing escapes before the joins.  (A crash
     of the pool machinery itself would still propagate from join.) *)
  worker ();
  Array.iter Domain.join domains;
  finish ~failures results

let map ?jobs ?(describe = default_describe) ?progress f items =
  let n = List.length items in
  let workers =
    let requested = match jobs with Some j -> j | None -> default_jobs () in
    max 1 (min requested n)
  in
  if workers <= 1 then sequential_map ~describe ?progress f items
  else parallel_map ~workers ~describe ?progress f items

let run ?jobs ?progress js =
  map ?jobs ~describe:Job.describe ?progress Job.run js
