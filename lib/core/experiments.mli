(** Every experiment grid, as one {!spec} type.

    A grid is a list of rows crossed with a list of protocols; each
    (row, protocol) cell runs one simulation ({!Job.t}).  The paper's
    throughput figures sweep the per-object write probability under one
    workload/locality setting (Section 5.1); Figures 12-14 rerun three
    workloads on the x9-scaled database with 3x transactions and report
    throughput normalized to PS-AA (Section 5.6.1).  The robustness,
    sharding, availability and clustering sweeps vary one knob of a
    base cell; the [sens-*] grids are the parameter sweeps of Section
    5.6.2 and the [abl-*] grids the Section 6 variants and design
    ablations (see DESIGN.md's ablation index).

    Adding a grid is one value in {!all}: {!Report} and the
    [experiments_main] CLI render and run any spec. *)

type key = {
  header : string;  (** table column header *)
  text : string;  (** table cell, padded to the header's width *)
  csv_header : string;
  csv_text : string;
}
(** One key column of a row: the coordinates a row is printed under.
    A key with an empty [header] and [text] appears in the CSV only. *)

type row = {
  keys : key list;
  tag : string;  (** the row's coordinates in detail lines, e.g. ["wp=0.10"] *)
  label : Algo.t -> string;
      (** the cell label, which keys the cell's seed (see {!Job.seed}):
          changing it changes the cell's random streams *)
  cfg : Config.t;
  params : Workload.Wparams.t;  (** built once, shared by every protocol *)
  warmup : float;  (** simulated seconds, before [time_scale] *)
  measure : float;
}

type detail = string * Metric.t * (float -> string, unit, string) format
(** A field of a detail line: the text printed before the value
    (separator included), the metric, and its format. *)

type spec = {
  id : string;  (** e.g. ["fig3"] *)
  title : string;
  algos : Algo.t list;  (** the protocols each row runs, in column order *)
  base_cfg : Config.t;  (** the configuration the rows vary *)
  workload : write_prob:float -> Workload.Wparams.t;
      (** the workload the rows vary, at a write probability *)
  rows : unit -> row list;
      (** built on demand: a row's params may be costly (object graphs) *)
  axis : string;  (** what the rows vary, plural: ["write probabilities"] *)
  normalize : bool;  (** also print throughput relative to PS-AA *)
  detail_heading : string;
      (** printed on a line of its own before the detail lines; figure
          headings start with a blank line, setting the block apart,
          while the other sweeps continue their table *)
  detail : detail list;
  csv : Metric.t list;  (** CSV columns after the keys and [algo] *)
}

val all : spec list
(** fig3, fig4, fig6..fig14 (fig5 is analytic, see {!figure5}), then
    faultsweep, shardsweep, srvfaultsweep, clustersweep, the four
    [sens-*] and the six [abl-*] grids. *)

val find : string -> spec option

val cfg_of : spec -> Config.t
(** [spec.base_cfg]: for a figure, the configuration of every cell. *)

val params_of : spec -> write_prob:float -> Workload.Wparams.t
(** [spec.workload]: for a figure, the workload at one write
    probability. *)

val jobs_of_spec :
  ?seed:int ->
  ?time_scale:float ->
  ?oracle:bool ->
  ?timeline:bool ->
  ?servers:int ->
  ?partition:Config.partition ->
  ?max_events:int ->
  spec ->
  Job.t list
(** Describe every (row, protocol) cell as a {!Job.t}, row-major.
    [time_scale] multiplies both windows (e.g. 0.25 for a quick look);
    [oracle] attaches the serializability oracle and [timeline] the
    event-timeline recorder (both default false).  [servers] and
    [partition], when given, override every row's topology.  None of
    these enters the seed key, so a cell replays the same client
    request streams with any of them; each job's RNG seed derives from
    [seed] (default 42) and the cell description alone (see
    {!Job.seed}).  [max_events] bounds each window's event count. *)

type point = { row : row; results : (Algo.t * Runner.result) list }
type series = { spec : spec; points : point list }

val series_of_results : spec -> Runner.result list -> series
(** Reassemble results, in the order of {!jobs_of_spec}, into rows.
    Raises [Invalid_argument] on a length mismatch. *)

val progress_line : Job.t -> Runner.result -> string
(** One-line completion message for a cell ("fig3 wp=0.05 PS-AA: ... tps"). *)

val cluster_params :
  policy:Workload.Placement.policy -> theta:float -> Workload.Wparams.t
(** The clustersweep's OCB workload (5000 objects, wp=0.2) under one
    placement policy and Zipf skew. *)

val figure5 : unit -> (int * (float * float) list) list
(** The analytic Figure 5 data: for each locality, (object write
    probability, page write probability) pairs. *)
