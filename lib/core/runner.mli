(** Assemble and run one simulation configuration.

    A run builds the system, lets it warm up (caches fill, queues reach
    steady state), resets the statistics, measures for a fixed window of
    simulated time, and reports a {!result}.  Runs are deterministic in
    [seed]. *)

type result = {
  algo : Algo.t;
  workload : string;
  sim_seconds : float;  (** length of the measurement window *)
  throughput : float;  (** committed transactions per second *)
  resp_mean : float;
  resp_ci90 : float;  (** 90% batch-means confidence half-width *)
  resp_batches : int;
  commits : int;
  aborts : int;
  deadlocks : int;
  messages : int;
  msgs_per_commit : float;
  kbytes_per_commit : float;
  disk_ios : int;
  server_cpu_util : float;
  client_cpu_util : float;  (** mean across clients *)
  disk_util : float;
  net_util : float;
  lock_waits : int;
  avg_lock_wait : float;
  callback_blocks : int;
  merges : int;
  deescalations : int;
  page_write_grants : int;
  object_write_grants : int;
  overflows : int;  (** page overflows (size-changing update model) *)
  token_waits : int;  (** write-token blocking events *)
  token_bounces : int;  (** page bounces on token transfer *)
  crashes : int;  (** client crashes injected (measurement window) *)
  crash_aborts : int;  (** in-flight transactions killed by a crash *)
  msg_losses : int;
  msg_dups : int;
  retransmits : int;  (** retransmission timer firings *)
  disk_stalls : int;
  faults_injected : int;  (** crashes + losses + dups + stalls + srv crashes *)
  recoveries : int;  (** first-commit-after-restart events *)
  recovery_mean : float;  (** mean crash-to-first-commit latency, s *)
  srv_crashes : int;  (** server crashes injected (measurement window) *)
  srv_giveaways : int;
      (** messages given away undelivered after exhausting retries
          against a down server (presumed-abort triggers) *)
  srv_recoveries : int;  (** completed server restart recoveries *)
  srv_recovery_mean : float;  (** mean crash-to-reopen latency, s *)
  retries : int;
      (** timeout-driven resends, all message classes (loss
          retransmissions plus down-server retries) *)
  retry_wait_p99 : float;
      (** p99 timeout-to-success latency: whole-send duration of
          messages that needed at least one retry *)
  oracle_commits : int;
      (** committed transactions the serializability oracle checked
          (whole run, including warmup); 0 when the oracle is off *)
  oracle_ops : int;  (** read/write operations recorded by the oracle *)
  resp_p50 : float;
      (** response-time percentiles from the always-on log-bucketed
          histogram (see {!Telemetry.Histogram} for the error bound) *)
  resp_p90 : float;
  resp_p99 : float;
  lock_wait_p99 : float;
  cb_round_p99 : float;  (** callback round-trip p99 *)
  n_servers : int;  (** number of server partitions in the run *)
  cb_forwards : int;
      (** cross-server callback forwarding legs (0 when [n_servers = 1]
          or every contested page is owned by the client's home server) *)
  edge_exchanges : int;
      (** waits-for edge-exchange control messages sent to the
          deadlock coordinator (server 0); 0 when [n_servers = 1] *)
  hists : Metrics.hist_snapshot;
      (** the full histograms, for merging across sweep cells *)
  timeline : Telemetry.Timeline.t option;
      (** the event timeline, present iff [cfg.timeline] *)
}

exception Oracle_failed of string * string
(** [(message, history_dump)]: the serializability oracle rejected the
    run's history.  The message carries the checker's witness plus the
    protocol, workload and seed; the dump is the full recorded history
    (written to a file by the CLIs for offline analysis). *)

val run :
  ?seed:int ->
  ?max_events:int ->
  ?warmup:float ->
  ?measure:float ->
  cfg:Config.t ->
  algo:Algo.t ->
  params:Workload.Wparams.t ->
  unit ->
  result
(** Defaults: [seed = 42], [warmup = 40.0] simulated seconds,
    [measure = 200.0].  [max_events] bounds each of the two
    {!Simcore.Engine.run_until} windows (safety valve for fault-storm
    fuzzing); exceeding it raises
    {!Simcore.Engine.Event_budget_exceeded}.

    Every run installs the invariant {!Audit} as the fault hook, runs
    it once more at end of run, and — when the configuration's crash
    rate is positive — starts the {!Crash} drivers.  When
    [cfg.oracle] is set, the recorded history is checked at end of run
    and {!Oracle_failed} raised on a violation. *)
