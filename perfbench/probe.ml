(* The benchmark's view of one workload execution.

   Every call the benchmark makes into a library layer goes through
   [timed], which adds the call's host time to that layer's total and, in
   the traced run, records a span around it. When a system finishes,
   [finish] audits it, folds its public counters into per-layer sums and
   appends its simulated outputs to a fingerprint, so two executions of
   the same workload can be compared exactly. *)

open Taichi_engine
open Taichi_hw
open Taichi_os
open Taichi_accel
open Taichi_core
open Taichi_dataplane
open Taichi_platform

let now = Unix.gettimeofday

type t = {
  ctx : Run_ctx.t;
  spans : Span.t option;
  host : (string, float) Hashtbl.t;  (** host seconds per span name *)
  layer : (string, float) Hashtbl.t;  (** simulated counts and times *)
  outcome : (string, float) Hashtbl.t;  (** workload results *)
  fp : Buffer.t;  (** simulated outputs of every system, in order *)
  mutable taichi_dp : Histogram.t;  (** merged DP latency, Tai Chi systems *)
  mutable attempted : int;
  mutable completed : int;
  mutable failures : string list;
  mutable trace_records : int;
  mutable trace_dropped : int;
  mutable export_bytes : int;
}

let create ?spans ~tracing () =
  {
    ctx = Run_ctx.create ~tracing ~audit:Run_ctx.Collect ~experiment:"perfbench" ();
    spans;
    host = Hashtbl.create 16;
    layer = Hashtbl.create 64;
    outcome = Hashtbl.create 16;
    fp = Buffer.create 4096;
    taichi_dp = Histogram.create ();
    attempted = 0;
    completed = 0;
    failures = [];
    trace_records = 0;
    trace_dropped = 0;
    export_bytes = 0;
  }

let get tbl k = Option.value (Hashtbl.find_opt tbl k) ~default:0.0
let add tbl k v = Hashtbl.replace tbl k (get tbl k +. v)
let addi tbl k v = add tbl k (float_of_int v)
let host_s t name = get t.host name
let fail t fmt = Printf.ksprintf (fun m -> t.failures <- m :: t.failures) fmt

let timed t name f =
  let t0 = now () in
  let r =
    match t.spans with Some s -> Span.with_ s name f | None -> f ()
  in
  add t.host name (now () -. t0);
  r

let record_ops t ~label ~attempted ~completed =
  t.attempted <- t.attempted + attempted;
  t.completed <- t.completed + completed;
  if completed <> attempted then
    fail t "%s: %d of %d operations completed" label completed attempted

let set_outcome t k v = Hashtbl.replace t.outcome k v
let fingerprint_line t s = Buffer.add_string t.fp s; Buffer.add_char t.fp '\n'

(* --- systems ------------------------------------------------------------- *)

let create_system t ~seed ?prepare policy =
  let sys =
    timed t "platform.create" (fun () ->
        System.create ~ctx:t.ctx ~seed ?prepare policy)
  in
  timed t "platform.warmup" (fun () -> System.warmup sys);
  sys

let advance t sys d = timed t "platform.advance" (fun () -> System.advance sys d)

let run_until_done t sys tasks ~limit =
  timed t "platform.advance" (fun () ->
      System.run_until_tasks_done sys tasks ~limit)

let start t f = timed t "workloads.start" f
let ns_s ns = float_of_int ns /. 1e9

(* Fold one finished system's public counters into the layer sums. *)
let collect_layers t sys =
  let m = System.machine sys in
  let sim = System.sim sys in
  let l = t.layer in
  addi l "engine.events" (Sim.events_processed sim);
  addi l "engine.scheduled" (Sim.events_scheduled sim);
  addi l "hw.core_state_transitions" (Core_state.transitions (Machine.core_state m));
  addi l "hw.ipis_sent" (Machine.ipis_sent m);
  let ks = Kernel.stats (System.kernel sys) in
  addi l "os.context_switches" ks.Kernel.context_switches;
  addi l "os.steals" ks.Kernel.steals;
  let acct = Machine.accounting m in
  let cls c = ns_s (Accounting.total_class acct c) in
  add l "os.spin_s" (cls Accounting.Spin);
  add l "os.irq_s" (cls Accounting.Os);
  add l "virt.switch_s" (cls Accounting.Switch);
  add l "dataplane.work_s" (cls Accounting.Dp_work);
  add l "dataplane.poll_s" (cls Accounting.Dp_poll);
  add l "controlplane.cp_work_s" (cls Accounting.Cp_work);
  let pipe = System.pipeline sys in
  addi l "accel.submitted" (Pipeline.submitted pipe);
  addi l "accel.delivered" (Pipeline.delivered pipe);
  List.iter
    (fun dp ->
      addi l "accel.ring_drops" (Ring.drops (Dp_service.ring dp));
      addi l "dataplane.packets" (Dp_service.packets_processed dp);
      add l "dataplane.parked_s" (ns_s (Dp_service.parked_time dp)))
    (System.services sys);
  addi l "dataplane.spikes" (System.dp_spikes sys);
  addi l "dataplane.latency_samples" (Histogram.count (System.dp_latency_hist sys));
  match System.taichi sys with
  | None -> ()
  | Some tc ->
      let st = Vcpu_sched.stats (Taichi.scheduler tc) in
      addi l "core.placements" st.Vcpu_sched.placements;
      addi l "core.halt_exits" st.Vcpu_sched.halt_exits;
      addi l "core.probe_evictions" st.Vcpu_sched.probe_evictions;
      addi l "core.lock_rescues" st.Vcpu_sched.lock_rescues;
      addi l "core.borrows" st.Vcpu_sched.borrows;
      addi l "core.hw_probe_triggers" (Hw_probe.triggers (Taichi.hw_probe tc));
      addi l "core.hw_probe_suppressed" (Hw_probe.suppressed (Taichi.hw_probe tc));
      let sw = Taichi.sw_probe tc in
      for core = 0 to Machine.physical_cores m - 1 do
        addi l "core.sw_probe_false_positives" (Sw_probe.false_positives sw ~core)
      done;
      let ipi = Ipi_orchestrator.stats (Taichi.orchestrator tc) in
      addi l "core.ipi_routed" ipi.Ipi_orchestrator.routed_to_vcpu;
      addi l "core.ipi_posted" ipi.Ipi_orchestrator.posted;
      addi l "accel.state_table_updates" (State_table.updates (Taichi.state_table tc));
      addi l "virt.vm_exits" (Taichi.total_vm_exits tc);
      Option.iter
        (fun ov ->
          addi l "core.overload_transitions" (Overload.transitions ov);
          List.iter
            (fun c -> addi l "core.overload_shed" (Overload.shed ov c))
            [ Overload.Critical; Overload.Standard; Overload.Deferrable ])
        (Taichi.overload tc)

(* Everything the system simulated, in a form two executions can compare
   byte for byte: all counters, per-core busy time by class, and the
   merged DP latency distribution. *)
let fingerprint_system t ~label sys =
  let m = System.machine sys in
  let acct = Machine.accounting m in
  let b = Buffer.create 1024 in
  Buffer.add_string b label;
  List.iter
    (fun (k, v) -> Buffer.add_string b (Printf.sprintf ";%s=%d" k v))
    (Counters.dump (Machine.counters m));
  for core = 0 to Machine.physical_cores m - 1 do
    List.iter
      (fun c ->
        Buffer.add_string b
          (Printf.sprintf ";c%d.%s=%d" core (Accounting.class_name c)
             (Accounting.busy_class acct ~core c)))
      Accounting.all_classes
  done;
  List.iter
    (fun (v, f) -> Buffer.add_string b (Printf.sprintf ";h%d=%.17g" v f))
    (Histogram.cdf_points (System.dp_latency_hist sys));
  Buffer.add_string b (Printf.sprintf ";now=%d" (Sim.now (System.sim sys)));
  fingerprint_line t (Buffer.contents b)

(* The traced run's export: snapshot, serialise, and validate the result
   through the same reader the trace linter uses. *)
let export_system t ~label ~seed sys =
  timed t "metrics.export" (fun () ->
      let m = System.machine sys in
      let trace = Machine.trace m in
      t.trace_records <- t.trace_records + Trace.length trace;
      t.trace_dropped <- t.trace_dropped + Trace.dropped trace;
      let run =
        Taichi_metrics.Export.make_run ~experiment:label
          ~policy:(Policy.name (System.policy sys))
          ~seed ~duration:(Sim.now (System.sim sys))
          ~cores:(Machine.physical_cores m)
          ~counters:(Counters.dump (Machine.counters m))
          trace
      in
      let s = Taichi_metrics.Export.to_string [ run ] in
      t.export_bytes <- t.export_bytes + String.length s;
      match Taichi_metrics.Export.validate_string s with
      | Ok () -> ()
      | Error e -> fail t "%s: trace export invalid: %s" label e)

(* End of one system's life: audit it, fold its counters, fingerprint it
   and (traced run) export it. Returns false when the audit failed, in
   which case the caller counts all of the system's operations as failed. *)
let finish t ~label ~seed sys =
  let violations =
    timed t "hw.audit" (fun () ->
        let illegal =
          Counters.get (Machine.counters (System.machine sys)) "core_state.illegal"
        in
        System.audit sys
        @ if illegal > 0 then [ Printf.sprintf "core_state.illegal=%d" illegal ] else [])
  in
  addi t.layer "hw.audit_violations" (List.length violations);
  if violations <> [] then
    fail t "%s: audit: %s" label (String.concat "; " violations);
  timed t "metrics.summary" (fun () ->
      collect_layers t sys;
      fingerprint_system t ~label sys;
      match System.policy sys with
      | Policy.Taichi _ ->
          t.taichi_dp <- Histogram.merge t.taichi_dp (System.dp_latency_hist sys)
      | _ -> ());
  if Run_ctx.tracing t.ctx then export_system t ~label ~seed sys;
  violations = []

let fingerprint t = Digest.to_hex (Digest.string (Buffer.contents t.fp))
