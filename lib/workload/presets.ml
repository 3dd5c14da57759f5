type name = Hotcold | Uniform | Hicon | Private_ | Interleaved_private

let all = [ Hotcold; Uniform; Hicon; Private_; Interleaved_private ]

let name_to_string = function
  | Hotcold -> "HOTCOLD"
  | Uniform -> "UNIFORM"
  | Hicon -> "HICON"
  | Private_ -> "PRIVATE"
  | Interleaved_private -> "INTERLEAVED-PRIVATE"

let name_of_string s =
  match String.uppercase_ascii s with
  | "HOTCOLD" -> Some Hotcold
  | "UNIFORM" -> Some Uniform
  | "HICON" -> Some Hicon
  | "PRIVATE" -> Some Private_
  | "INTERLEAVED-PRIVATE" | "INTERLEAVED_PRIVATE" | "INTERLEAVED" ->
    Some Interleaved_private
  | _ -> None

type locality = Low | High

let locality_range = function
  | Low -> { Wparams.lo = 1; hi = 7 }
  | High -> { Wparams.lo = 8; hi = 16 }

let default_trans_size = function Low -> 30 | High -> 10

let whole_db ~db_pages = { Wparams.first = 0; last = db_pages - 1 }

let hot_region_of ~db_pages ~num_clients which client =
  match which with
  | Uniform -> None
  | Hicon ->
    (* One shared skewed region: db/5 pages (250 of 1250). *)
    Some { Wparams.first = 0; last = (db_pages / 5) - 1 }
  | Hotcold ->
    let span = db_pages / 25 (* 50 of 1250 *) in
    Some { Wparams.first = client * span; last = ((client + 1) * span) - 1 }
  | Private_ | Interleaved_private ->
    let span = db_pages / 50 (* 25 of 1250 *) in
    ignore num_clients;
    Some { Wparams.first = client * span; last = ((client + 1) * span) - 1 }

let make ?trans_size ?page_locality ?(access_pattern = Wparams.Unclustered)
    ?(per_object_read_instr = 10_000.0) ?(think_time = 0.0) which ~db_pages
    ~objects_per_page ~num_clients ~locality ~write_prob =
  let is_private =
    match which with Private_ | Interleaved_private -> true | _ -> false
  in
  let trans_size =
    match trans_size with
    | Some n -> n
    | None ->
      if is_private && locality = Low then 13
        (* paper footnote: 30-page transactions do not fit PRIVATE's
           25-page hot regions; they used transSize=13, locality ~8 *)
      else default_trans_size locality
  in
  let page_locality =
    match page_locality with
    | Some r -> r
    | None ->
      if is_private && locality = Low then { Wparams.lo = 4; hi = 12 }
      else locality_range locality
  in
  (* The partitioned presets carve one hot region per client out of a
     fixed fraction of the database, so they only support a bounded
     population; fail with the bound (rather than a bare out-of-range
     region error from [Wparams.validate]) so large-population runs are
     steered to the shared-region presets. *)
  (match which with
  | Hotcold | Private_ | Interleaved_private ->
    let denom = match which with Hotcold -> 25 | _ -> 50 in
    let span = db_pages / denom in
    let supported = if span = 0 then 0 else db_pages / span in
    if num_clients > supported then
      invalid_arg
        (Printf.sprintf
           "Presets: %s gives each client a private hot region of %d pages \
            (db_pages/%d), so at most %d clients fit a %d-page database; \
            use UNIFORM or HICON for larger populations"
           (name_to_string which) span denom supported db_pages)
  | Uniform | Hicon -> ());
  let client_params client =
    let hot_region = hot_region_of ~db_pages ~num_clients which client in
    let cold_region =
      if is_private then
        (* Shared, read-only second half of the database. *)
        { Wparams.first = db_pages / 2; last = db_pages - 1 }
      else whole_db ~db_pages
    in
    {
      Wparams.hot_region;
      cold_region;
      hot_access_prob = (match which with Uniform -> 0.0 | _ -> 0.8);
      hot_write_prob = write_prob;
      cold_write_prob = (if is_private then 0.0 else write_prob);
    }
  in
  (* UNIFORM and HICON give every client the same parameters: share one
     record rather than holding a copy per client. *)
  let clients =
    match which with
    | Uniform | Hicon -> Array.make num_clients (client_params 0)
    | Hotcold | Private_ | Interleaved_private ->
      Array.init num_clients client_params
  in
  let remap =
    match which with
    | Interleaved_private ->
      let hot_pages_per_client = db_pages / 50 in
      Some
        (Interleave.remap ~hot_pages_per_client ~objects_per_page ~num_clients)
    | _ -> None
  in
  let params =
    {
      Wparams.name = name_to_string which;
      trans_size;
      page_locality;
      access_pattern;
      per_object_read_instr;
      per_object_write_instr = 2.0 *. per_object_read_instr;
      think_time;
      clients;
      remap;
      generic = None;
      arrival = None;
    }
  in
  Wparams.validate params ~db_pages ~objects_per_page;
  params

(* --- Generic (OCB-style) workloads ------------------------------------- *)

(* The generic object-base workload wrapped as a [Wparams.t]: the
   preset fields are inert placeholders that satisfy [validate]; the
   [generic] payload drives transaction generation.  All knobs default
   to the values documented in {!Generic.make}. *)
let ocb ?classes ?objects ?fanout ?depth ?policy ?theta ?mix ?traversal_depth
    ?traversal_cap ?match_size ?update_size ?(per_object_read_instr = 10_000.0)
    ?(think_time = 0.0) ?arrival ?(seed = 42) ~db_pages ~objects_per_page
    ~num_clients ~write_prob () =
  let g =
    Generic.make ?classes ?objects ?fanout ?depth ?policy ?theta ?mix
      ?traversal_depth ?traversal_cap ?match_size ?update_size ~write_prob
      ~db_pages ~objects_per_page ~seed ()
  in
  let clients =
    Array.make num_clients
      {
        Wparams.hot_region = None;
        cold_region = whole_db ~db_pages;
        hot_access_prob = 0.0;
        hot_write_prob = 0.0;
        cold_write_prob = 0.0;
      }
  in
  let params =
    {
      Wparams.name = Generic.name g;
      trans_size = 1;
      page_locality = { Wparams.lo = 1; hi = 1 };
      access_pattern = Wparams.Clustered;
      per_object_read_instr;
      per_object_write_instr = 2.0 *. per_object_read_instr;
      think_time;
      clients;
      remap = None;
      generic = Some g;
      arrival;
    }
  in
  Wparams.validate params ~db_pages ~objects_per_page;
  params
