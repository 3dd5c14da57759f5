open Model
open Simcore

type endpoint = Client of int | Server of int

let cpu_of sys = function
  | Client c -> Model.client_cpu sys c
  | Server s -> sys.servers.(s).scpu

(* The fault-free path below is kept byte-for-byte identical to the
   original transport: when message faults are disabled no extra RNG
   draw, event or metric is introduced. *)
let send_reliable sys ~cls ~src ~dst ~bytes ~instr =
  Metrics.note_msg sys.metrics cls ~bytes;
  Resources.Cpu.system (cpu_of sys src) instr;
  Resources.Network.transfer sys.net ~bytes;
  Resources.Cpu.system (cpu_of sys dst) instr

(* Lossy transport: each attempt pays sender CPU and wire time; a lost
   message is detected by the sender's retransmission timer (exponential
   backoff, capped) and resent.  A delivered message may additionally be
   duplicated in the network; the duplicate arrives later, burns wire
   and receiver CPU, and is then recognized by its sequence number and
   discarded — all protocol messages are idempotent at that point, so no
   protocol state changes.  Returns how many retransmissions the send
   needed. *)
let send_faulty sys ~cls ~src ~dst ~bytes ~instr =
  let f = sys.faults in
  let p = Faults.profile f in
  let rec attempt retries timeout =
    Metrics.note_msg sys.metrics cls ~bytes;
    Resources.Cpu.system (cpu_of sys src) instr;
    Resources.Network.transfer sys.net ~bytes;
    if Faults.draw_msg_loss f then begin
      Proc.hold timeout;
      Faults.note_retransmit f;
      Metrics.note_msg_retry sys.metrics cls;
      attempt (retries + 1)
        (Float.min (timeout *. p.Faults.retrans_backoff)
           p.Faults.retrans_max_timeout)
    end
    else begin
      Resources.Cpu.system (cpu_of sys dst) instr;
      (if Faults.draw_msg_dup f then
         Proc.spawn sys.engine (fun () ->
             Resources.Network.transfer sys.net ~bytes;
             Resources.Cpu.system (cpu_of sys dst) instr));
      retries
    end
  in
  attempt 0 p.Faults.retrans_timeout

(* A server that is down (or still recovering, for every class except
   the recovery protocol's own) does not answer. *)
let server_refuses sys ~cls = function
  | Client _ -> false
  | Server sid -> (
    match sys.servers.(sid).srv_state with
    | Srv_up -> false
    | Srv_recovering -> cls <> Metrics.M_recover
    | Srv_down -> true)

(* Transport to an unresponsive server.  Each attempt still pays sender
   CPU and wire time — the request reaches a dead machine — and the
   sender's retransmission timer then fires.  Non-[persist] senders
   give the message away after [retrans_giveaway] attempts and handle
   the failure locally (abort-and-retry); [persist] senders (callback
   legs, whose delivery is a correctness requirement) keep trying until
   the server reopens, which the restart driver guarantees.  Returns
   [(delivered, retries)]. *)
let send_down sys ~cls ~src ~dst ~bytes ~instr ~persist =
  let f = sys.faults in
  let p = Faults.profile f in
  let rec attempt tries timeout =
    Metrics.note_msg sys.metrics cls ~bytes;
    Resources.Cpu.system (cpu_of sys src) instr;
    Resources.Network.transfer sys.net ~bytes;
    if not (server_refuses sys ~cls dst) then begin
      Resources.Cpu.system (cpu_of sys dst) instr;
      (true, tries - 1)
    end
    else if tries >= p.Faults.retrans_giveaway && not persist then begin
      Faults.note_srv_giveaway f;
      (false, tries - 1)
    end
    else begin
      Proc.hold timeout;
      Faults.note_retransmit f;
      Metrics.note_msg_retry sys.metrics cls;
      attempt (tries + 1)
        (Float.min (timeout *. p.Faults.retrans_backoff)
           p.Faults.retrans_max_timeout)
    end
  in
  attempt 1 p.Faults.retrans_timeout

(* Core send.  With server faults on, a send addressed to a non-up
   server goes through the timeout/giveaway path; everything else takes
   the loss/duplication path (faulted) or the original reliable path.
   Returns false iff the message was given away undelivered. *)
let send_checked ?(persist = false) sys ~cls ~src ~dst ~bytes =
  let instr = Config.msg_instr sys.cfg ~bytes in
  let t0 = Engine.now sys.engine in
  (* The refusal check is independent of the fault profile: a server
     can be down through direct [Crash.crash_server] orchestration with
     every fault knob off, and the transport must still time out.  In a
     fault-free run every server is [Srv_up], so the check is a pure
     field read and the reliable path is taken unchanged. *)
  let delivered, retries =
    if server_refuses sys ~cls dst then
      send_down sys ~cls ~src ~dst ~bytes ~instr ~persist
    else if Faults.message_faults sys.faults then
      (true, send_faulty sys ~cls ~src ~dst ~bytes ~instr)
    else begin
      send_reliable sys ~cls ~src ~dst ~bytes ~instr;
      (true, 0)
    end
  in
  if delivered then begin
    (* Whole-send latency per message class, retransmissions included —
       pure observation into an always-on histogram. *)
    let duration = Engine.now sys.engine -. t0 in
    Metrics.note_msg_latency sys.metrics cls ~duration;
    (* Timeout-to-success: only sends that needed at least one retry. *)
    if retries > 0 then Metrics.note_retry_wait sys.metrics ~duration
  end;
  delivered

let send sys ~cls ~src ~dst ~bytes =
  ignore (send_checked sys ~cls ~src ~dst ~bytes)

let control sys ~cls ~src ~dst =
  send sys ~cls ~src ~dst ~bytes:(Config.control_bytes sys.cfg)

let control_checked ?persist sys ~cls ~src ~dst =
  send_checked ?persist sys ~cls ~src ~dst
    ~bytes:(Config.control_bytes sys.cfg)

let page_data sys ~cls ~src ~dst =
  send sys ~cls ~src ~dst ~bytes:(Config.page_msg_bytes sys.cfg)

let objs_data sys ~cls ~src ~dst ~count =
  send sys ~cls ~src ~dst ~bytes:(Config.objs_msg_bytes sys.cfg ~count)

(* Distributed deadlock detection cost model: whenever a server's local
   waits-for graph gains an edge it ships that edge to the designated
   coordinator (server 0).  Detection itself runs synchronously on the
   union of the linked graphs (Waits_for.link) — the coordinator is
   idealized as always current, so no deadlock can hide between
   exchanges — but each exchange still pays one control message of CPU
   and wire time.  The send is spawned on its own fiber because edges
   appear inside lock-acquire paths that must not suspend, and it is
   fire-and-forget: nothing waits on it.  With one server there is no
   coordinator traffic and no hook, preserving byte-identity. *)
let install_edge_exchange sys =
  if Array.length sys.servers > 1 then
    Array.iter
      (fun sv ->
        let sid = sv.Model.sid in
        if sid <> 0 then
          Locking.Waits_for.set_exchange_hook sv.Model.wfg (fun _txn ->
              Proc.spawn sys.engine (fun () ->
                  control sys ~cls:Metrics.M_edge_exchange ~src:(Server sid)
                    ~dst:(Server 0))))
      sys.servers

