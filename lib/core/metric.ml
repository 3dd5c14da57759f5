type t = {
  name : string;
  unit : string;
  get : Runner.result -> float;
  csv : (float -> string, unit, string) format;
}

let to_csv m r = Printf.sprintf m.csv (m.get r)

let count name get =
  { name; unit = "count"; get = (fun r -> float_of_int (get r)); csv = "%.0f" }

let ms name get =
  { name; unit = "ms"; get = (fun r -> 1000.0 *. get r); csv = "%.1f" }
let ratio name get = { name; unit = "ratio"; get; csv = "%.3f" }
let per_commit name unit get = { name; unit; get; csv = "%.2f" }

open Runner

let throughput =
  {
    name = "throughput";
    unit = "1/s";
    get = (fun r -> r.throughput);
    csv = "%.4f";
  }

let resp_ms = ms "resp_ms" (fun r -> r.resp_mean)
let resp_ci_ms = ms "resp_ci_ms" (fun r -> r.resp_ci90)
let resp_batches = count "resp_batches" (fun r -> r.resp_batches)
let resp_p50_ms = ms "resp_p50_ms" (fun r -> r.resp_p50)
let resp_p90_ms = ms "resp_p90_ms" (fun r -> r.resp_p90)
let resp_p99_ms = ms "resp_p99_ms" (fun r -> r.resp_p99)
let lock_wait_p99_ms = ms "lock_wait_p99_ms" (fun r -> r.lock_wait_p99)
let cb_round_p99_ms = ms "cb_round_p99_ms" (fun r -> r.cb_round_p99)
let commits = count "commits" (fun r -> r.commits)
let aborts = count "aborts" (fun r -> r.aborts)
let deadlocks = count "deadlocks" (fun r -> r.deadlocks)
let msgs_per_commit =
  per_commit "msgs_per_commit" "count" (fun r -> r.msgs_per_commit)

let kbytes_per_commit =
  per_commit "kbytes_per_commit" "KiB" (fun r -> r.kbytes_per_commit)

let disk_ios = count "disk_ios" (fun r -> r.disk_ios)
let server_cpu = ratio "server_cpu" (fun r -> r.server_cpu_util)
let client_cpu = ratio "client_cpu" (fun r -> r.client_cpu_util)
let disk_util = ratio "disk_util" (fun r -> r.disk_util)
let net_util = ratio "net_util" (fun r -> r.net_util)
let lock_waits = count "lock_waits" (fun r -> r.lock_waits)
let avg_lock_wait_ms = ms "avg_lock_wait_ms" (fun r -> r.avg_lock_wait)
let deescalations = count "deescalations" (fun r -> r.deescalations)
let merges = count "merges" (fun r -> r.merges)
let page_grants = count "page_grants" (fun r -> r.page_write_grants)
let object_grants = count "object_grants" (fun r -> r.object_write_grants)
let callback_blocks = count "callback_blocks" (fun r -> r.callback_blocks)
let servers = count "servers" (fun r -> r.n_servers)
let cb_forwards = count "cb_forwards" (fun r -> r.cb_forwards)
let edge_exchanges = count "edge_exchanges" (fun r -> r.edge_exchanges)
let retries = count "retries" (fun r -> r.retries)
let retry_wait_p99_ms = ms "retry_wait_p99_ms" (fun r -> r.retry_wait_p99)
let crashes = count "crashes" (fun r -> r.crashes)
let crash_aborts = count "crash_aborts" (fun r -> r.crash_aborts)
let msg_losses = count "msg_losses" (fun r -> r.msg_losses)
let msg_dups = count "msg_dups" (fun r -> r.msg_dups)
let retransmits = count "retransmits" (fun r -> r.retransmits)
let disk_stalls = count "disk_stalls" (fun r -> r.disk_stalls)
let faults_injected = count "faults_injected" (fun r -> r.faults_injected)
let recoveries = count "recoveries" (fun r -> r.recoveries)
let recovery_ms = ms "recovery_ms" (fun r -> r.recovery_mean)
let srv_crashes = count "srv_crashes" (fun r -> r.srv_crashes)
let srv_recoveries = count "srv_recoveries" (fun r -> r.srv_recoveries)
let srv_recovery_ms = ms "srv_recovery_ms" (fun r -> r.srv_recovery_mean)
let srv_giveaways = count "srv_giveaways" (fun r -> r.srv_giveaways)
let oracle_commits = count "oracle_commits" (fun r -> r.oracle_commits)
let oracle_ops = count "oracle_ops" (fun r -> r.oracle_ops)

let all =
  [
    throughput; resp_ms; resp_ci_ms; resp_batches; resp_p50_ms; resp_p90_ms;
    resp_p99_ms; lock_wait_p99_ms; cb_round_p99_ms; commits; aborts;
    deadlocks; msgs_per_commit; kbytes_per_commit; disk_ios; server_cpu;
    client_cpu; disk_util; net_util; lock_waits; avg_lock_wait_ms;
    deescalations; merges; page_grants; object_grants; callback_blocks;
    servers; cb_forwards; edge_exchanges; retries; retry_wait_p99_ms;
    crashes; crash_aborts; msg_losses; msg_dups; retransmits; disk_stalls;
    faults_injected; recoveries; recovery_ms; srv_crashes; srv_recoveries;
    srv_recovery_ms; srv_giveaways; oracle_commits; oracle_ops;
  ]
