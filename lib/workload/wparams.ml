type range = { lo : int; hi : int }

let avg r = float_of_int (r.lo + r.hi) /. 2.0

type region = { first : int; last : int }

let region_size r = r.last - r.first + 1
let in_region r p = p >= r.first && p <= r.last

type access_pattern = Clustered | Unclustered

type per_client = {
  hot_region : region option;
  cold_region : region;
  hot_access_prob : float;
  hot_write_prob : float;
  cold_write_prob : float;
}

type t = {
  name : string;
  trans_size : int;
  page_locality : range;
  access_pattern : access_pattern;
  per_object_read_instr : float;
  per_object_write_instr : float;
  think_time : float;
  clients : per_client array;
  remap : (Storage.Ids.Oid.t -> Storage.Ids.Oid.t) option;
  generic : Generic.t option;
  arrival : Arrival.t option;
}

let check_region ~db_pages r what =
  if r.first < 0 || r.last >= db_pages || r.last < r.first then
    invalid_arg
      (Printf.sprintf "Wparams: %s region [%d,%d] outside database of %d pages"
         what r.first r.last db_pages)

let validate t ~db_pages ~objects_per_page =
  Option.iter Arrival.validate t.arrival;
  if t.trans_size <= 0 then invalid_arg "Wparams: trans_size must be positive";
  if not (Float.is_finite t.think_time && t.think_time >= 0.0) then
    invalid_arg
      (Printf.sprintf "Wparams: think_time must be finite and non-negative, got %g"
         t.think_time);
  if t.page_locality.lo < 1 || t.page_locality.hi < t.page_locality.lo then
    invalid_arg "Wparams: bad page_locality range";
  if t.page_locality.hi > objects_per_page then
    invalid_arg "Wparams: page_locality exceeds objects per page";
  if Array.length t.clients = 0 then invalid_arg "Wparams: no clients";
  Array.iter
    (fun c ->
      Option.iter (fun r -> check_region ~db_pages r "hot") c.hot_region;
      check_region ~db_pages c.cold_region "cold";
      (* A transaction must be able to pick trans_size distinct pages. *)
      let reachable =
        region_size c.cold_region
        + (match c.hot_region with
          | Some h when not (in_region c.cold_region h.first) -> region_size h
          | Some _ | None -> 0)
      in
      if t.trans_size > reachable then
        invalid_arg
          (Printf.sprintf
             "Wparams: trans_size %d exceeds %d reachable pages" t.trans_size
             reachable))
    t.clients
