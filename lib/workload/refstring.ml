open Storage
open Simcore

type op = { oid : Ids.Oid.t; write : bool }
type t = op array

(* Draw [n] distinct pages, each independently routed to the hot or cold
   region; duplicates are rejected and redrawn.  If one region becomes
   exhausted the draw falls through to the other, so generation always
   terminates when Wparams.validate accepted the workload.  Running
   counts of the chosen pages inside each region (the regions may
   overlap, so a page can count in both) make the exhaustion test O(1)
   per draw. *)
let draw_pages rng (c : Wparams.per_client) n =
  let chosen = Hashtbl.create (2 * n) in
  let pick_in (r : Wparams.region) =
    Rng.int_in rng ~lo:r.first ~hi:r.last
  in
  let in_hot p =
    match c.hot_region with Some hr -> Wparams.in_region hr p | None -> false
  in
  let hot_chosen = ref 0 and cold_chosen = ref 0 in
  let full (r : Wparams.region) chosen = chosen >= Wparams.region_size r in
  let out = ref [] in
  let count = ref 0 in
  while !count < n do
    let want_hot =
      match c.hot_region with
      | None -> false
      | Some hr ->
        if full hr !hot_chosen then false
        else if full c.cold_region !cold_chosen then true
        else Rng.bool rng ~p:c.hot_access_prob
    in
    let p =
      match (want_hot, c.hot_region) with
      | true, Some hr -> pick_in hr
      | true, None -> assert false
      | false, _ -> pick_in c.cold_region
    in
    if not (Hashtbl.mem chosen p) then begin
      Hashtbl.add chosen p ();
      if in_hot p then incr hot_chosen;
      if Wparams.in_region c.cold_region p then incr cold_chosen;
      out := p :: !out;
      incr count
    end
  done;
  List.rev !out

let write_prob_for (c : Wparams.per_client) page =
  match c.hot_region with
  | Some hr when Wparams.in_region hr page -> c.hot_write_prob
  | Some _ | None -> c.cold_write_prob

let generate_preset ~rng ~params ~client ~objects_per_page =
  let c = params.Wparams.clients.(client) in
  let pages = draw_pages rng c params.trans_size in
  let per_page_ops =
    List.map
      (fun page ->
        let k =
          Rng.int_in rng ~lo:params.page_locality.lo
            ~hi:(min params.page_locality.hi objects_per_page)
        in
        let slots = Rng.sample_without_replacement rng ~k ~n:objects_per_page in
        let wp = write_prob_for c page in
        Array.map
          (fun slot ->
            { oid = Ids.Oid.make ~page ~slot; write = Rng.bool rng ~p:wp })
          slots)
      pages
  in
  let ops =
    match params.access_pattern with
    | Clustered -> Array.concat per_page_ops
    | Unclustered ->
      let all = Array.concat per_page_ops in
      Rng.shuffle rng all;
      all
  in
  match params.remap with
  | None -> ops
  | Some f -> Array.map (fun op -> { op with oid = f op.oid }) ops

(* Generic object-base workloads bypass the preset hot/cold page draw
   entirely: the object base fixes which objects exist and the placement
   fixes where they live, so the generator emits oids directly. *)
let generate ~rng ~params ~client ~objects_per_page =
  match params.Wparams.generic with
  | Some g ->
    Array.map (fun (oid, write) -> { oid; write }) (Generic.generate g ~rng)
  | None -> generate_preset ~rng ~params ~client ~objects_per_page

let pages t =
  let seen = Hashtbl.create 32 in
  let out = ref [] in
  Array.iter
    (fun op ->
      let p = op.oid.Ids.Oid.page in
      if not (Hashtbl.mem seen p) then begin
        Hashtbl.add seen p ();
        out := p :: !out
      end)
    t;
  List.rev !out

let object_count t = Array.length t

let write_count t =
  Array.fold_left (fun acc op -> if op.write then acc + 1 else acc) 0 t
