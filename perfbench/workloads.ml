(* The benchmark's four workloads, built directly on the library's public
   functions (System, the workload clients, Vm_lifecycle, Fleet_run) so
   that editing an experiment in lib/platform/exp_*.ml cannot change
   what is measured.

   Every workload generates its load in simulated time from [seed]; the
   same seed gives the same inputs and the same simulated outputs.
   [scale] shortens a workload (1.0 is full length).
   Each system's operations are counted as attempted and completed, and
   its results are appended to the probe's fingerprint. *)

open Taichi_engine
open Taichi_os
open Taichi_accel
open Taichi_core
open Taichi_metrics
open Taichi_workloads
open Taichi_controlplane
open Taichi_faults
open Taichi_platform

let sprintf = Printf.sprintf
let us_of_ns ns = float_of_int ns /. 1e3

(* --- shared load generators ---------------------------------------------- *)

(* Background DP traffic on every data-plane core, networking and
   storage, at a target useful utilization. *)
let start_bg_dp ?storage_target sys ~target ~until =
  let client = System.client sys in
  let rng = Rng.split (System.rng sys) "bg-dp" in
  let storage_target = Option.value storage_target ~default:target in
  Bgload.start client rng
    ~params:(Bgload.default_params ~target_util:target)
    ~cores:(System.net_cores sys) ~kind:Packet.Net_rx ~size:1400 ~until;
  Bgload.start client rng
    ~params:
      {
        (Bgload.default_params ~target_util:storage_target) with
        Bgload.per_packet_est = Time_ns.ns 5200;
      }
    ~cores:(System.storage_cores sys) ~kind:Packet.Storage_read ~size:4096
    ~until

(* Monitors and log flushers, admitted as never-throttled work. *)
let start_bg_cp sys =
  let rng = Rng.split (System.rng sys) "bg-cp" in
  List.iter
    (fun task -> System.spawn_cp ~cls:Overload.Critical sys task)
    (Monitor.standard_background ~rng ~affinity:[] ())

let start_cp_ecosystem sys =
  let rng = Rng.split (System.rng sys) "cp-eco" in
  List.iter
    (fun task -> System.spawn_cp sys task)
    (Monitor.production_ecosystem ~rng ~affinity:[] ~tasks:48 ~target_util:1.8 ())

(* Deferrable CP churn: one short spinlocked task per [period], held back
   while the governor signals backpressure. *)
let start_cp_churn sys ~period ~work ~until =
  let sim = System.sim sys in
  let rng = Rng.split (System.rng sys) "cp-churn" in
  let params = { Synth_cp.default_params with total_work = work; phases = 3 } in
  let lock = Task.spinlock "churn-dev" in
  let counters = Taichi_hw.Machine.counters (System.machine sys) in
  let held = Counters.handle counters "overload.client_held.churn" in
  let n = ref 0 in
  let rec tick () =
    if Sim.now sim < until then begin
      if System.cp_backpressure sys then Counters.incr_h counters held
      else begin
        incr n;
        System.spawn_cp ~cls:Overload.Deferrable sys
          (Synth_cp.make ~rng ~params ~locks:[ lock ] ~affinity:[]
             ~name:(sprintf "churn-%d" !n) ())
      end;
      ignore (Sim.after sim period tick)
    end
  in
  tick ()

(* CP pressure for the DP workloads: background monitors plus churn that
   offers more work than the dedicated CP cores absorb, so Tai Chi keeps
   placing vCPUs on idle DP cores. *)
let cp_pressure sys ~until =
  start_bg_cp sys;
  start_cp_churn sys ~period:(Time_ns.ms 1) ~work:(Time_ns.ms 5) ~until

(* One system from creation to audit. [body] starts the load and advances
   time; it returns the system's completed operation count and a line of
   results for the fingerprint. Operations still registered with the
   client at the end were attempted but never completed. A system that
   fails its audit counts all of its operations as failed. *)
let with_system p ~seed ~label policy body =
  let sys = Probe.create_system p ~seed policy in
  let completed, attempted, line = body sys in
  let attempted = attempted + Client.outstanding (System.client sys) in
  let ok = Probe.finish p ~label ~seed sys in
  Probe.fingerprint_line p (label ^ " " ^ line);
  Probe.record_ops p ~label ~attempted ~completed:(if ok then completed else 0)

(* --- ping_rtt: Table 5 ---------------------------------------------------- *)

let paper_rtt_avg_us = 30.0 (* Table 5, Tai Chi average RTT *)

let ping_rtt p ~seed ~scale =
  let count = max 50 (int_of_float (3000.0 *. scale)) in
  let interval = Time_ns.ms 2 in
  let dur = (count * interval) + Time_ns.ms 50 in
  List.iter
    (fun (tag, policy) ->
      let recorder = Recorder.create "ping.rtt" in
      with_system p ~seed ~label:("ping_rtt." ^ tag) policy (fun sys ->
          Probe.start p (fun () ->
              cp_pressure sys ~until:(Sim.now (System.sim sys) + dur);
              Ping.run (System.client sys)
                (Rng.split (System.rng sys) "ping")
                ~params:{ Ping.default_params with interval; count }
                ~core:(List.hd (System.net_cores sys))
                ~recorder);
          Probe.advance p sys dur;
          let s = Ping.summarize recorder in
          let pct q = us_of_ns (Recorder.percentile recorder q) in
          Probe.set_outcome p (tag ^ ".rtt_avg_us") s.Ping.avg_us;
          Probe.set_outcome p (tag ^ ".rtt_max_us") s.Ping.max_us;
          if tag = "taichi" then begin
            Probe.set_outcome p "rtt_p50_us" (pct 50.0);
            Probe.set_outcome p "rtt_p99_us" (pct 99.0);
            Probe.set_outcome p "rtt_samples" (float_of_int (Recorder.count recorder));
            Probe.set_outcome p "paper_err_pct"
              (Float.abs (s.Ping.avg_us -. paper_rtt_avg_us) /. paper_rtt_avg_us *. 100.0)
          end;
          ( Recorder.count recorder,
            count,
            sprintf "min=%.3f avg=%.3f max=%.3f mdev=%.3f" s.Ping.min_us
              s.Ping.avg_us s.Ping.max_us s.Ping.mdev_us )))
    [
      ("base", Policy.Static_partition);
      ("taichi", Policy.taichi_default);
      ("noprobe", Policy.taichi_no_hw_probe);
    ]

(* --- dp_stream: Fig 14 netperf/sockperf + Fig 13 fio ---------------------- *)

let paper_fig14_overhead_pct = 0.6 (* Fig 14, average Tai Chi overhead *)

let rr ~connections ~stages ~think client rng ~cores ~until =
  Rr_engine.run client rng
    ~params:{ Rr_engine.connections; stages; think; ramp = Time_ns.ms 1 }
    ~cores ~until

(* Each case starts its load and returns (values, completed ops): the
   Fig 14 throughput values (or the latency, for sock_udp) read after the
   run. *)
let dp_case case sys rng ~dur ~until =
  let client = System.client sys in
  let cores = System.net_cores sys in
  let stream ~size ~with_acks =
    let r =
      Netperf.stream ~gap_mean:(Time_ns.us 15) client rng ~connections:8
        ~window:1 ~size ~with_acks ~cores ~until
    in
    fun () ->
      ( [ Netperf.stream_rx_pps r ~duration:dur ]
        @ (if with_acks then [ Netperf.stream_tx_pps r ~duration:dur ] else []),
        !(r.Netperf.rx_done) + !(r.Netperf.tx_done) )
  in
  let transactions r = Recorder.count r.Rr_engine.transactions in
  match case with
  | "udp_stream" -> stream ~size:1400 ~with_acks:false
  | "tcp_stream" -> stream ~size:1460 ~with_acks:true
  | "tcp_rr" ->
      let r =
        rr ~connections:48
          ~stages:
            [
              Rr_engine.stage ~kind:Packet.Net_rx ~size:128 ~gap_after:(Time_ns.us 3) ();
              Rr_engine.stage ~kind:Packet.Net_tx ~size:128 ~rx:false ();
            ]
          ~think:(Time_ns.us 14) client rng ~cores ~until
      in
      fun () -> ([ Rr_engine.tps r ~duration:dur ], transactions r)
  | "sock_tcp" ->
      let r =
        rr ~connections:32
          ~stages:
            [
              Rr_engine.stage ~conn_setup:true ~kind:Packet.Net_rx ~size:64
                ~gap_after:(Time_ns.us 3) ();
              Rr_engine.stage ~kind:Packet.Net_tx ~size:256 ~rx:false ();
            ]
          ~think:(Time_ns.us 30) client rng ~cores ~until
      in
      fun () -> ([ Rr_engine.tps r ~duration:dur ], transactions r)
  | "sock_udp" ->
      let r = Sockperf.udp client rng ~cores ~until in
      fun () -> ([ (Sockperf.udp_summary r).Sockperf.avg_us ], transactions r)
  | case -> invalid_arg ("dp_stream: unknown case " ^ case)

let dp_cases = [ "udp_stream"; "tcp_stream"; "tcp_rr"; "sock_tcp"; "sock_udp" ]
let two_policies = [ ("base", Policy.Static_partition); ("taichi", Policy.taichi_default) ]

let dp_stream p ~seed ~scale =
  let dur = max (Time_ns.ms 10) (int_of_float (500e6 *. scale)) in
  let values = Hashtbl.create 8 in
  List.iter
    (fun case ->
      List.iter
        (fun (tag, policy) ->
          with_system p ~seed ~label:(sprintf "dp_stream.%s.%s" case tag) policy
            (fun sys ->
              let until = Sim.now (System.sim sys) + dur in
              let read =
                Probe.start p (fun () ->
                    cp_pressure sys ~until;
                    dp_case case sys (Rng.split (System.rng sys) "fig14") ~dur ~until)
              in
              Probe.advance p sys (dur + Time_ns.ms 5);
              let vs, ops = read () in
              Hashtbl.replace values (case, tag) vs;
              (ops, ops, String.concat " " (List.map (sprintf "%.17g") vs))))
        two_policies)
    dp_cases;
  (* Fig 14's six series; the latency series is lower-is-better. *)
  let series tag = List.concat_map (fun c -> Hashtbl.find values (c, tag)) dp_cases in
  let overheads =
    List.mapi
      (fun i (b, t) -> if i = 5 then (t -. b) /. b *. 100.0 else (b -. t) /. b *. 100.0)
      (List.combine (series "base") (series "taichi"))
  in
  let ov = List.fold_left ( +. ) 0.0 overheads /. float_of_int (List.length overheads) in
  Probe.set_outcome p "dp_overhead_pct" ov;
  Probe.set_outcome p "paper_err_pct"
    (Float.abs (ov -. paper_fig14_overhead_pct) /. paper_fig14_overhead_pct *. 100.0);
  (* Fig 13: fio 4 KiB random reads on the storage cores. *)
  let fio_dur = max (Time_ns.ms 10) (int_of_float (400e6 *. scale)) in
  List.iter
    (fun (tag, policy) ->
      with_system p ~seed ~label:("dp_stream.fio." ^ tag) policy (fun sys ->
          let until = Sim.now (System.sim sys) + fio_dur in
          let r =
            Probe.start p (fun () ->
                cp_pressure sys ~until;
                Fio.run (System.client sys)
                  (Rng.split (System.rng sys) "fio")
                  ~params:Fio.default_params ~cores:(System.storage_cores sys) ~until)
          in
          Probe.advance p sys (fio_dur + Time_ns.ms 5);
          let iops = Fio.iops r ~duration:fio_dur in
          Probe.set_outcome p (tag ^ ".fio_iops") iops;
          (r.Fio.ios, r.Fio.ios, sprintf "iops=%.17g" iops)))
    two_policies

(* --- vm_storm: Fig 17 + the governed 4x storm ----------------------------- *)

let paper_fig17_reduction = 3.1 (* Fig 17, startup reduction at high density *)

let startup_tasks sys ~density ~rng_name ~recorder =
  let sim = System.sim sys in
  let rng = Rng.split (System.rng sys) rng_name in
  let locks = List.init 8 (fun i -> Task.spinlock (sprintf "device-driver-%d" i)) in
  let base = Vm_lifecycle.at_density ~base:(Vm_lifecycle.default_params ~rng) density in
  let params =
    {
      base with
      Vm_lifecycle.device =
        { base.Vm_lifecycle.device with Device_mgmt.dpcp_roundtrip = System.dpcp_roundtrip sys };
    }
  in
  List.init
    (max 1 (int_of_float (10.0 *. density)))
    (fun i ->
      Vm_lifecycle.startup_task ~sim ~rng ~params ~locks ~affinity:[]
        ~name:(sprintf "vm-%d" i) ~recorder ())

let finished tasks = List.length (List.filter Task.is_finished tasks)

let vm_storm p ~seed ~scale =
  (* Full length sweeps Fig 17's four densities; the traced run keeps the
     lowest and the highest. *)
  let densities = if scale >= 1.0 then [ 1.0; 2.0; 3.0; 4.0 ] else [ 1.0; 4.0 ] in
  let mean_ms = Hashtbl.create 8 in
  List.iter
    (fun density ->
      List.iter
        (fun (tag, policy) ->
          let recorder = Recorder.create "vm.startup" in
          with_system p ~seed ~label:(sprintf "vm_storm.d%.0f.%s" density tag) policy
            (fun sys ->
              let tasks =
                Probe.start p (fun () ->
                    let until = Sim.now (System.sim sys) + Time_ns.sec 60 in
                    start_bg_dp sys ~target:0.12 ~until;
                    start_cp_ecosystem sys;
                    let tasks = startup_tasks sys ~density ~rng_name:"fig17" ~recorder in
                    List.iter (fun task -> System.spawn_cp sys task) tasks;
                    tasks)
              in
              ignore (Probe.run_until_done p sys tasks ~limit:(Time_ns.sec 60) : bool);
              Probe.addi p.Probe.layer "controlplane.vms_started" (finished tasks);
              let ms = Recorder.mean recorder /. 1e6 in
              Hashtbl.replace mean_ms (density, tag) ms;
              (finished tasks, List.length tasks, sprintf "startup_ms=%.17g" ms)))
        two_policies)
    densities;
  let top = List.fold_left Float.max 0.0 densities in
  let base = Hashtbl.find mean_ms (top, "base") and tc = Hashtbl.find mean_ms (top, "taichi") in
  Probe.set_outcome p "vm_startup_ms" tc;
  Probe.set_outcome p "base.vm_startup_ms" base;
  Probe.set_outcome p "paper_err_pct"
    (Float.abs ((base /. tc) -. paper_fig17_reduction) /. paper_fig17_reduction *. 100.0);
  (* The 4x storm through governed admission, without the hardware probe
     so CP placements reach the DP tail: background DP, Critical
     monitors, Deferrable churn and Standard VM startups staggered over
     the first third of the window. *)
  let config = Config.with_overload (Config.no_hw_probe Config.default) in
  with_system p ~seed ~label:"vm_storm.governed" (Policy.Taichi config) (fun sys ->
      let sim = System.sim sys in
      let dur = max (Time_ns.ms 100) (int_of_float (120e6 *. scale)) in
      let recorder = Recorder.create "vm.startup" in
      let tasks =
        Probe.start p (fun () ->
            let until = Sim.now sim + dur in
            start_bg_dp sys ~target:0.25 ~storage_target:0.12 ~until;
            start_bg_cp sys;
            start_cp_churn sys ~period:(Time_ns.us 300) ~work:(Time_ns.us 200) ~until;
            let tasks = startup_tasks sys ~density:4.0 ~rng_name:"overload-storm" ~recorder in
            let gap = dur / 3 / List.length tasks in
            List.iteri
              (fun i task ->
                ignore
                  (Sim.after sim (gap * i) (fun () ->
                       System.spawn_cp ~cls:Overload.Standard sys task)))
              tasks;
            tasks)
      in
      Probe.advance p sys dur;
      ignore (Probe.run_until_done p sys tasks ~limit:(Time_ns.sec 2) : bool);
      Probe.advance p sys (Time_ns.ms 20);
      Probe.addi p.Probe.layer "controlplane.vms_started" (finished tasks);
      (finished tasks, List.length tasks, sprintf "startup_ms=%.17g" (Recorder.mean recorder)))

(* --- fleet_failover: Fleet_run ------------------------------------------- *)

let fleet_cells =
  [
    ( "n8",
      8,
      { Nic_faults.quiet with Nic_faults.crashes = 1; crash_window = (12, 28) } );
    ( "n16",
      16,
      {
        Nic_faults.crashes = 2;
        crash_window = (12, 30);
        brownouts = 1;
        brownout_hold = 8;
        partition = true;
        partition_hold = 6;
        overruns = 1;
      } );
  ]

let fleet_params ~scale ~fleet_jobs nics faults =
  {
    Fleet_run.default_params with
    Fleet_run.nics;
    epochs = max 32 (int_of_float (48.0 *. scale));
    governor = true;
    failover = true;
    faults;
    fleet_jobs = min nics fleet_jobs;
  }

(* Per-NIC configuration of a fleet system, for timing set-up alone. *)
let fleet_policy =
  let c = Config.no_hw_probe Config.default in
  let c = Config.with_tenants c [ Tenant.spec ~weight:2 "alpha"; Tenant.spec "bravo" ] in
  Policy.Taichi (Config.with_churn (Config.with_overload c))

let median xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let fleet_failover ~fleet_jobs p ~seed ~scale =
  let holding = ref 0 and survivors = ref 0 and p99s = ref [] in
  List.iter
    (fun (tag, nics, faults) ->
      let label = "fleet_failover." ^ tag in
      let before = List.length (Run_ctx.audit_failures p.Probe.ctx) in
      let rep =
        Probe.timed p "fleet.run" (fun () ->
            Fleet_run.run ~ctx:p.Probe.ctx ~seed (fleet_params ~scale ~fleet_jobs nics faults))
      in
      let audits = List.length (Run_ctx.audit_failures p.Probe.ctx) - before in
      if audits > 0 then Probe.fail p "%s: %d NIC audits failed" label audits;
      let l = p.Probe.layer in
      let sum f = List.fold_left (fun acc r -> acc + f r) 0 rep.Fleet_run.r_nics in
      let exch_sent = sum (fun r -> r.Fleet_run.nr_exch_sent) in
      let exch_lost = sum (fun r -> r.Fleet_run.nr_exch_lost) in
      if sum (fun r -> r.Fleet_run.nr_exch_delivered) + exch_lost > exch_sent then
        Probe.fail p "%s: exchange books do not balance" label;
      if List.length rep.Fleet_run.r_crashed <> faults.Nic_faults.crashes then
        Probe.fail p "%s: %d NICs crashed, plan said %d" label
          (List.length rep.Fleet_run.r_crashed) faults.Nic_faults.crashes;
      Probe.addi l "fleet.exch_sent" exch_sent;
      Probe.addi l "fleet.exch_lost" exch_lost;
      Probe.addi l "fleet.rpc_sent" (sum (fun r -> r.Fleet_run.nr_rpc_sent));
      Probe.addi l "fleet.rpc_completed" (sum (fun r -> r.Fleet_run.nr_rpc_completed));
      Probe.addi l "fleet.rpc_retries" (sum (fun r -> r.Fleet_run.nr_rpc_retries));
      Probe.addi l "fleet.rpc_timeouts" (sum (fun r -> r.Fleet_run.nr_rpc_timeouts));
      Probe.addi l "fleet.replaced" (List.length rep.Fleet_run.r_replaced);
      Probe.addi l "fleet.refused" rep.Fleet_run.r_refused;
      Probe.addi l "fleet.forced_drains" rep.Fleet_run.r_forced_drains;
      Probe.addi l "faults.crashes" (List.length rep.Fleet_run.r_crashed);
      Probe.addi l "dataplane.packets" (sum (fun r -> r.Fleet_run.nr_packets));
      Probe.addi l "controlplane.vms_started" (sum (fun r -> r.Fleet_run.nr_vms));
      (* One dynamic tenant is committed per NIC; a tenant on a crashed
         NIC completes only if failover re-placed it on a survivor. *)
      let replaced c =
        List.exists
          (fun r ->
            r.Fleet_run.tenant = c.Fleet_run.tenant
            && r.Fleet_run.from_nic = c.Fleet_run.from_nic)
          rep.Fleet_run.r_replaced
      in
      let lost = List.length (List.filter (fun c -> not (replaced c)) rep.Fleet_run.r_committed) in
      Probe.record_ops p ~label ~attempted:nics
        ~completed:(if audits = 0 then nics - lost else 0);
      let alive = List.filter (fun r -> r.Fleet_run.nr_state <> "crashed") rep.Fleet_run.r_nics in
      survivors := !survivors + List.length alive;
      holding := !holding + List.length (List.filter (fun r -> r.Fleet_run.nr_guard_ok) alive);
      p99s := List.map (fun r -> r.Fleet_run.nr_p99_us) alive @ !p99s;
      Probe.fingerprint_line p (sprintf "%s %s" label rep.Fleet_run.r_fingerprint))
    fleet_cells;
  let scheduled, processed = Run_ctx.engine_events p.Probe.ctx in
  Probe.addi p.Probe.layer "engine.events" processed;
  Probe.addi p.Probe.layer "engine.scheduled" scheduled;
  Probe.set_outcome p "slo_attainment" (float_of_int !holding /. float_of_int (max 1 !survivors));
  Probe.set_outcome p "dp_p99_us" (median !p99s)

(* --- registry ------------------------------------------------------------- *)

type t = {
  name : string;
  run : fleet_jobs:int -> Probe.t -> seed:int -> scale:float -> unit;
  setup : Policy.t list;  (** the systems one execution creates *)
  time_scale : float;  (** length of one timed execution *)
  trace_scale : float;  (** length of the traced run *)
}

let all =
  let simple f ~fleet_jobs:_ p ~seed ~scale = f p ~seed ~scale in
  let repeat n x = List.init n (fun _ -> x) in
  [
    {
      name = "ping_rtt";
      run = simple ping_rtt;
      setup = [ Policy.Static_partition; Policy.taichi_default; Policy.taichi_no_hw_probe ];
      time_scale = 0.1;
      trace_scale = 0.02;
    };
    {
      name = "dp_stream";
      run = simple dp_stream;
      setup = List.concat (repeat 6 (List.map snd two_policies));
      time_scale = 0.15;
      trace_scale = 0.1;
    };
    {
      name = "vm_storm";
      run = simple vm_storm;
      setup =
        List.concat (repeat 4 (List.map snd two_policies))
        @ [ Policy.Taichi (Config.with_overload (Config.no_hw_probe Config.default)) ];
      time_scale = 1.0;
      trace_scale = 0.5;
    };
    {
      name = "fleet_failover";
      run = fleet_failover;
      setup = repeat (List.fold_left (fun acc (_, n, _) -> acc + n) 0 fleet_cells) fleet_policy;
      time_scale = 1.0;
      trace_scale = 0.5;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
