(** Rendering of experiment output: any {!Experiments.spec}'s tables,
    detail lines and CSV through one code path, plus the parameter
    tables (Tables 1-2) and Figure 5.  Every number comes from the
    {!Metric} registry. *)

val render : percentiles:bool -> detail:bool -> Experiments.series -> string
(** The throughput table (one row per spec row, one column per
    protocol; a normalized spec adds the table relative to PS-AA),
    then, when asked, the response-time percentiles per cell with the
    histograms merged per protocol, then the detail block: one line
    per cell with the spec's detail fields.  Ends with a blank line. *)

val to_csv : Experiments.series -> string
(** One header line ([keys],[algo],[metrics]), then one line per cell:
    the rows' CSV key cells, the protocol and the spec's CSV metrics. *)

val merged_response_hists :
  Experiments.series -> (Algo.t * Telemetry.Histogram.t) list
(** Per protocol, the response histograms of every row merged in row
    order (deterministic for any pool's execution order). *)

val pp_percentiles : Format.formatter -> Runner.result -> unit
(** Histogram-derived latency percentiles for one run: response
    p50/p90/p99, lock-wait p99, callback round-trip p99, and per
    message class p99 (classes with at least one sample). *)

val pp_figure5 : Format.formatter -> (int * (float * float) list) list -> unit

val pp_workload_table : Format.formatter -> Config.t -> unit
(** Render the Table-2-style workload parameter listing for all
    presets at the given configuration. *)
