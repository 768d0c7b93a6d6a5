(* Tests for the Tai Chi core: software probe adaptation, hardware probe,
   IPI orchestrator, vCPU scheduler behaviours. These build a small full
   system via the platform layer where integration is needed. *)

open Taichi_engine
open Taichi_os
open Taichi_accel
open Taichi_core
open Taichi_platform
open Taichi_metrics
open Taichi_workloads

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* --- Config ------------------------------------------------------------------ *)

let test_config_ablations () =
  let c = Config.default in
  checkb "probe on" true c.Config.hw_probe;
  checkb "probe off" false (Config.no_hw_probe c).Config.hw_probe;
  checkb "fixed slice" false (Config.fixed_slice c).Config.adaptive_slice;
  checkb "fixed threshold" false
    (Config.fixed_threshold c).Config.adaptive_threshold;
  checkb "unsafe locks" false (Config.unsafe_locks c).Config.lock_safe_resched;
  checkb "no optional subsystem armed" true
    (c.Config.resilience = None && c.Config.overload = None
   && not c.Config.churn);
  checki "paper initial slice" (Time_ns.us 50) Vcpu_sched.initial_slice

(* --- Sw_probe ------------------------------------------------------------------ *)

let test_sw_probe_adaptation () =
  let sw = Sw_probe.create Config.default ~cores:2 in
  let n0 = Sw_probe.threshold sw ~core:0 in
  checki "initial" Sw_probe.threshold_init n0;
  Sw_probe.on_sustained_idle sw ~core:0;
  checki "decreased" (n0 - Sw_probe.threshold_dec)
    (Sw_probe.threshold sw ~core:0);
  Sw_probe.on_false_positive sw ~core:0;
  checkb "increased" true (Sw_probe.threshold sw ~core:0 > n0);
  checki "other core untouched" n0 (Sw_probe.threshold sw ~core:1)

let test_sw_probe_bounds () =
  let sw = Sw_probe.create Config.default ~cores:1 in
  for _ = 1 to 100 do
    Sw_probe.on_sustained_idle sw ~core:0
  done;
  checki "floor" Sw_probe.threshold_min (Sw_probe.threshold sw ~core:0);
  for _ = 1 to 100 do
    Sw_probe.on_false_positive sw ~core:0
  done;
  checki "ceiling" Sw_probe.threshold_max
    (Sw_probe.threshold sw ~core:0);
  checki "fp counted" 100 (Sw_probe.false_positives sw ~core:0)

let test_sw_probe_fixed () =
  let sw = Sw_probe.create (Config.fixed_threshold Config.default) ~cores:1 in
  Sw_probe.on_sustained_idle sw ~core:0;
  Sw_probe.on_false_positive sw ~core:0;
  checki "unchanged" Sw_probe.threshold_init
    (Sw_probe.threshold sw ~core:0)

(* --- full-system helpers ---------------------------------------------------------- *)

let taichi_system ?(config = Config.default) ~seed () =
  let sys = System.create ~seed (Policy.Taichi config) in
  System.warmup sys;
  sys

let get_taichi sys =
  match System.taichi sys with Some tc -> tc | None -> Alcotest.fail "no taichi"

(* --- installation & registration ---------------------------------------------------- *)

let test_install_boots_vcpus () =
  let sys = taichi_system ~seed:1 () in
  let tc = get_taichi sys in
  checkb "ready" true (Taichi.ready tc);
  checki "vcpu count" Config.default.Config.n_vcpus (List.length (Taichi.vcpus tc));
  (* vCPUs are native kernel CPUs now. *)
  List.iter
    (fun v ->
      let kc = Kernel.cpu (System.kernel sys) v.Taichi_virt.Vcpu.kcpu in
      checkb "online" true (Kernel.is_online kc);
      checkb "virtual" true (Kernel.cpu_kind kc = `Virtual))
    (Taichi.vcpus tc)

let test_cp_affinity_spans_vcpus () =
  let sys = taichi_system ~seed:1 () in
  let tc = get_taichi sys in
  let ids = Taichi.cp_cpu_ids tc in
  checki "4 pcpus + 8 vcpus" 12 (List.length ids);
  List.iter
    (fun v -> checkb "vcpu included" true (List.mem v.Taichi_virt.Vcpu.kcpu ids))
    (Taichi.vcpus tc)

(* --- yielding & placement ----------------------------------------------------------- *)

let test_idle_dp_core_hosts_vcpu () =
  let sys = taichi_system ~seed:2 () in
  let tc = get_taichi sys in
  (* Give the control plane sustained work; the data plane stays idle, so
     vCPUs must be placed on data-plane cores. *)
  let t =
    Task.create ~name:"burn"
      ~step:(Taichi_os.Program.to_step
               [ Taichi_os.Program.compute (Time_ns.ms 20) ])
      ()
  in
  (* Pin to vCPUs only so placement is forced. *)
  t.Task.affinity <- List.map (fun v -> v.Taichi_virt.Vcpu.kcpu) (Taichi.vcpus tc);
  System.spawn_cp sys t;
  System.advance sys (Time_ns.ms 50);
  let s = Vcpu_sched.stats (Taichi.scheduler tc) in
  checkb "placements happened" true (s.Vcpu_sched.placements > 0);
  (* The 20ms of compute only fits in 50ms if the vCPU actually ran it on
     a donated data-plane core. *)
  checkb "task completed on a vcpu" true (Task.is_finished t)

let test_state_table_tracks_placement () =
  let sys = taichi_system ~seed:3 () in
  let tc = get_taichi sys in
  let table = Taichi.state_table tc in
  let t =
    Task.create ~name:"burn"
      ~step:(Taichi_os.Program.to_step
               [ Taichi_os.Program.compute (Time_ns.ms 100) ])
      ()
  in
  t.Task.affinity <- List.map (fun v -> v.Taichi_virt.Vcpu.kcpu) (Taichi.vcpus tc);
  System.spawn_cp sys t;
  System.advance sys (Time_ns.ms 20);
  let v_cores =
    List.filter
      (fun core -> State_table.get table ~core = State_table.V_state)
      (System.dp_cores sys)
  in
  checkb "some core in V-state" true (List.length v_cores >= 1);
  (* The scheduler's placed map agrees with the table. *)
  List.iter
    (fun core ->
      checkb "scheduler agrees" true
        (Vcpu_sched.placed_vcpu (Taichi.scheduler tc) ~core <> None))
    v_cores

(* --- hardware probe ------------------------------------------------------------------ *)

let test_probe_evicts_vcpu_for_packet () =
  let sys = taichi_system ~seed:4 () in
  let tc = get_taichi sys in
  let t =
    Task.create ~name:"burn"
      ~step:(Taichi_os.Program.to_step
               [ Taichi_os.Program.compute (Time_ns.ms 200) ])
      ()
  in
  t.Task.affinity <- List.map (fun v -> v.Taichi_virt.Vcpu.kcpu) (Taichi.vcpus tc);
  System.spawn_cp sys t;
  System.advance sys (Time_ns.ms 10);
  (* Find a V-state core and fire a packet at it. *)
  let table = Taichi.state_table tc in
  let target =
    List.find_opt
      (fun core -> State_table.get table ~core = State_table.V_state)
      (System.dp_cores sys)
  in
  match target with
  | None -> Alcotest.fail "no vcpu placed on a net core"
  | Some core ->
      let recorder = Recorder.create "lat" in
      Client.submit (System.client sys) ~kind:Packet.Net_rx ~size:64 ~core
        ~on_done:(fun pkt ->
          Recorder.observe recorder (pkt.Packet.t_done - pkt.Packet.t_submit))
        ();
      System.advance sys (Time_ns.ms 1);
      checki "packet processed" 1 (Recorder.count recorder);
      (* The probe hid the switch inside the 3.2us window: total latency
         stays close to the native path (window + software cost, which is
         larger on storage cores), far below any slice wait. *)
      checkb "latency hidden" true (Recorder.max_value recorder < Time_ns.us 12);
      checkb "probe triggered" true (Hw_probe.triggers (Taichi.hw_probe tc) >= 1);
      checkb "P-state restored" true
        (State_table.get table ~core = State_table.P_state)

let test_no_probe_packet_waits_for_slice () =
  let sys = taichi_system ~config:(Config.no_hw_probe Config.default) ~seed:4 () in
  let tc = get_taichi sys in
  let t =
    Task.create ~name:"burn"
      ~step:(Taichi_os.Program.to_step
               [ Taichi_os.Program.compute (Time_ns.ms 200) ])
      ()
  in
  t.Task.affinity <- List.map (fun v -> v.Taichi_virt.Vcpu.kcpu) (Taichi.vcpus tc);
  System.spawn_cp sys t;
  System.advance sys (Time_ns.ms 10);
  let table = Taichi.state_table tc in
  let target =
    List.find_opt
      (fun core -> State_table.get table ~core = State_table.V_state)
      (System.dp_cores sys)
  in
  match target with
  | None -> Alcotest.fail "no vcpu placed"
  | Some core ->
      let recorder = Recorder.create "lat" in
      Client.submit (System.client sys) ~kind:Packet.Net_rx ~size:64 ~core
        ~on_done:(fun pkt ->
          Recorder.observe recorder (pkt.Packet.t_done - pkt.Packet.t_submit))
        ();
      System.advance sys (Time_ns.ms 2);
      checki "processed eventually" 1 (Recorder.count recorder);
      (* Without the probe the packet waits for a slice expiry: visibly
         worse than the hidden path but bounded by the max slice. *)
      checkb "latency shows slice wait" true
        (Recorder.max_value recorder > Time_ns.us 10);
      checkb "bounded by max slice" true
        (Recorder.max_value recorder
        <= Vcpu_sched.max_slice + Time_ns.us 20)

(* --- adaptive slice -------------------------------------------------------------------- *)

let test_slice_doubles_and_resets () =
  let sys = taichi_system ~seed:5 () in
  let tc = get_taichi sys in
  let t =
    Task.create ~name:"burn"
      ~step:(Taichi_os.Program.to_step
               [ Taichi_os.Program.compute (Time_ns.ms 500) ])
      ()
  in
  t.Task.affinity <- List.map (fun v -> v.Taichi_virt.Vcpu.kcpu) (Taichi.vcpus tc);
  System.spawn_cp sys t;
  (* Long quiet stretch: slices should grow to the cap. *)
  System.advance sys (Time_ns.ms 5);
  let v =
    List.find
      (fun v -> Taichi_virt.Vcpu.is_placed v)
      (Taichi.vcpus tc)
  in
  checkb "slice grew" true (v.Taichi_virt.Vcpu.slice > Vcpu_sched.initial_slice);
  checkb "slice capped" true (v.Taichi_virt.Vcpu.slice <= Vcpu_sched.max_slice);
  (* A packet at its core resets the slice. *)
  (match Taichi_virt.Vcpu.core v with
  | Some core ->
      Client.submit (System.client sys) ~kind:Packet.Net_rx ~size:64 ~core
        ~on_done:(fun _ -> ())
        ();
      (* Observe right after the probe eviction, before the next quiet
         slice expiry has a chance to double it again. *)
      System.advance sys (Time_ns.us 10);
      checki "reset to initial" Vcpu_sched.initial_slice
        v.Taichi_virt.Vcpu.slice;
      checkb "probe exit recorded" true
        (Taichi_virt.Vcpu.exit_count v Taichi_virt.Vmexit.Hw_probe_irq >= 1)
  | None -> Alcotest.fail "vcpu lost its core")

(* --- orchestrator ------------------------------------------------------------------------ *)

let test_orchestrator_routes_and_counts () =
  let sys = taichi_system ~seed:6 () in
  let tc = get_taichi sys in
  let orch = Taichi.orchestrator tc in
  let stats = Ipi_orchestrator.stats orch in
  (* Boot IPIs for 8 vCPUs were routed through the orchestrator. *)
  checkb "routed boot IPIs" true (stats.Ipi_orchestrator.routed_to_vcpu >= 8);
  checkb "is_vcpu_kcpu" true (Ipi_orchestrator.is_vcpu_kcpu orch 12);
  checkb "pcpus are not vcpus" false (Ipi_orchestrator.is_vcpu_kcpu orch 0)

let test_orchestrator_wakes_sleeping_vcpu () =
  let sys = taichi_system ~seed:7 () in
  let tc = get_taichi sys in
  let before = (Ipi_orchestrator.stats (Taichi.orchestrator tc)).Ipi_orchestrator.wakeups in
  (* A task pinned to one vCPU: the wake IPI must awaken it. *)
  let v = List.hd (Taichi.vcpus tc) in
  let t =
    Task.create ~name:"pinned" ~affinity:[ v.Taichi_virt.Vcpu.kcpu ]
      ~step:(Taichi_os.Program.to_step
               [ Taichi_os.Program.compute (Time_ns.ms 1) ])
      ()
  in
  System.spawn_cp sys t;
  System.advance sys (Time_ns.ms 20);
  checkb "task ran via wakeup" true (Task.is_finished t);
  let after = (Ipi_orchestrator.stats (Taichi.orchestrator tc)).Ipi_orchestrator.wakeups in
  checkb "wakeup counted" true (after >= before)

(* --- lock safety --------------------------------------------------------------------------- *)

let test_lock_holder_rescued () =
  let sys = taichi_system ~seed:8 () in
  let tc = get_taichi sys in
  let lock = Task.spinlock "drv" in
  (* A vCPU-pinned task holding a long lock, plus packets evicting it. *)
  let t =
    Task.create ~name:"holder"
      ~step:
        (Taichi_os.Program.to_step
           [
             Taichi_os.Program.Forever
               (Taichi_os.Program.critical_section lock
                  [ Taichi_os.Program.kernel_routine (Time_ns.ms 3) ]);
           ])
      ()
  in
  t.Task.affinity <- List.map (fun v -> v.Taichi_virt.Vcpu.kcpu) (Taichi.vcpus tc);
  System.spawn_cp sys t;
  System.advance sys (Time_ns.ms 5);
  (* Evict whichever core hosts it, repeatedly. *)
  for _ = 1 to 10 do
    List.iter
      (fun core ->
        if State_table.get (Taichi.state_table tc) ~core = State_table.V_state
        then
          Client.submit (System.client sys) ~kind:Packet.Net_rx ~size:64 ~core
            ~on_done:(fun _ -> ())
            ())
      (System.dp_cores sys);
    System.advance sys (Time_ns.ms 2)
  done;
  let s = Vcpu_sched.stats (Taichi.scheduler tc) in
  checkb "rescues performed" true (s.Vcpu_sched.lock_rescues > 0);
  checki "no unsafe suspensions" 0 s.Vcpu_sched.unsafe_suspensions;
  (* Forward progress: the holder kept executing critical sections. *)
  checkb "holder progressed" true (t.Task.cpu_time > Time_ns.ms 10)

(* The §4.1 fallback ladder: when every data-plane core is busy, a rescued
   lock holder cannot migrate DP-to-DP and must borrow a dedicated CP
   pCPU instead. *)
let test_rescue_borrows_cp_pcpu_when_dp_busy () =
  let sys = taichi_system ~seed:9 () in
  let tc = get_taichi sys in
  let lock = Task.spinlock "drv2" in
  let holder =
    Task.create ~name:"holder"
      ~step:
        (Taichi_os.Program.to_step
           [
             Taichi_os.Program.Forever
               (Taichi_os.Program.critical_section lock
                  [ Taichi_os.Program.kernel_routine (Time_ns.ms 3) ]);
           ])
      ()
  in
  holder.Task.affinity <-
    List.map (fun v -> v.Taichi_virt.Vcpu.kcpu) (Taichi.vcpus tc);
  System.spawn_cp sys holder;
  System.advance sys (Time_ns.ms 5);
  (* Saturate every data-plane core so no parked core exists; the packet
     backlog also keeps evicting whichever core hosts the holder. *)
  for _ = 1 to 12 do
    List.iter
      (fun core ->
        for _ = 1 to 8 do
          Client.submit_background (System.client sys) ~kind:Packet.Net_rx
            ~size:1400 ~core
        done)
      (System.dp_cores sys);
    System.advance sys (Time_ns.ms 2)
  done;
  let s = Vcpu_sched.stats (Taichi.scheduler tc) in
  checkb "rescues happened" true (s.Vcpu_sched.lock_rescues > 0);
  checkb "borrowed a dedicated CP pCPU" true (s.Vcpu_sched.borrows > 0);
  checki "no unsafe suspensions" 0 s.Vcpu_sched.unsafe_suspensions;
  (* Forward progress despite the busy data plane. *)
  checkb "holder progressed" true (holder.Task.cpu_time > Time_ns.ms 8)

(* A holder that never releases its lock exhausts the rescue ladder: the
   watchdog's last rung forcibly ends the CP borrow (one counted unsafe
   suspension) rather than letting the borrowed core wedge forever. *)
(* The watchdog runs whenever resilience or the overload governor is
   armed (the governor's forced static partition relies on it to unstick
   suspended lock holders) and never otherwise. *)
let wedged_holder_counters config =
  let sys = taichi_system ~config ~seed:10 () in
  let tc = get_taichi sys in
  let lock = Task.spinlock "wedged" in
  let stage = ref 0 in
  let holder =
    Task.create ~name:"wedged"
      ~step:(fun _ ->
        let s = !stage in
        incr stage;
        if s = 0 then Task.Acquire lock
        else
          Task.Run
            { duration = Time_ns.ms 50; mode = Task.Kernel_nonpreemptible })
      ()
  in
  holder.Task.affinity <-
    List.map (fun v -> v.Taichi_virt.Vcpu.kcpu) (Taichi.vcpus tc);
  System.spawn_cp sys holder;
  System.advance sys (Time_ns.ms 5);
  for _ = 1 to 15 do
    List.iter
      (fun core ->
        for _ = 1 to 8 do
          Client.submit_background (System.client sys) ~kind:Packet.Net_rx
            ~size:1400 ~core
        done)
      (System.dp_cores sys);
    System.advance sys (Time_ns.ms 2)
  done;
  let s = Vcpu_sched.stats (Taichi.scheduler tc) in
  (Counters.dump (Taichi_hw.Machine.counters (System.machine sys)), s)

let check_watchdog_escalates config () =
  let c, s = wedged_holder_counters config in
  let get name = try List.assoc name c with Not_found -> 0 in
  checkb "watchdog forced the borrow to end" true
    (get "recovery.watchdog.forced" > 0);
  checkb "forced end counted as unsafe suspension" true
    (s.Vcpu_sched.unsafe_suspensions > 0)

let test_watchdog_off_when_unarmed () =
  let c, _ = wedged_holder_counters Config.default in
  let watchdog =
    List.filter
      (fun (name, _) ->
        String.length name >= 18 && String.sub name 0 18 = "recovery.watchdog.")
      c
  in
  checki "no recovery.watchdog.* counter" 0 (List.length watchdog)

(* --- accessor views of the counter registry ---------------------------------------- *)

(* Every public event accessor is a view of the machine's counter
   registry, so it must equal [Counters.get] of its name. One short run
   with resilience, the governor (thresholds low enough to climb the
   ladder) and the storm fault profile armed exercises them all. *)
let test_accessors_read_registry () =
  let open Taichi_hw in
  let open Taichi_faults in
  let overload =
    {
      Config.default_overload with
      Config.busy_high = 0.2;
      busy_low = 0.1;
      runq_high = 1;
      runq_low = 0;
      p99_bound = Time_ns.us 20;
    }
  in
  let config =
    { (Config.resilient Config.default) with Config.overload = Some overload }
  in
  let injector = ref None in
  let prepare machine =
    injector :=
      Some
        (Injector.create ~rng:(Rng.create ~seed:7) ~machine
           ~boot_vector:Kernel.default_config.Kernel.boot_vector Injector.storm)
  in
  let sys = System.create ~seed:7 ~prepare (Policy.Taichi config) in
  System.warmup sys;
  let tc = get_taichi sys in
  let until = Sim.now (System.sim sys) + Time_ns.ms 10 in
  Injector.arm (Option.get !injector) ~until;
  Exp_common.start_bg_dp sys ~target:0.6 ~until;
  Exp_common.start_bg_cp sys;
  Exp_common.start_cp_churn sys ~period:(Time_ns.ms 1) ~work:(Time_ns.ms 8)
    ~until;
  System.advance sys (Time_ns.ms 12);
  let m = System.machine sys in
  let get = Counters.get (Machine.counters m) in
  let views name v = checki name (get name) v in
  let s = Vcpu_sched.stats (Taichi.scheduler tc) in
  views "sched.placements" s.Vcpu_sched.placements;
  views "sched.evictions.probe" s.Vcpu_sched.probe_evictions;
  views "sched.evictions.pending" s.Vcpu_sched.pending_evictions;
  views "sched.halt_exits" s.Vcpu_sched.halt_exits;
  views "sched.rotations" s.Vcpu_sched.rotations;
  views "sched.rescues" s.Vcpu_sched.lock_rescues;
  views "sched.borrows" s.Vcpu_sched.borrows;
  views "sched.unsafe_suspensions" s.Vcpu_sched.unsafe_suspensions;
  let k = Kernel.stats (System.kernel sys) in
  views "kernel.context_switches" k.Kernel.context_switches;
  views "kernel.steals" k.Kernel.steals;
  views "probe.hw.triggers" (Hw_probe.triggers (Taichi.hw_probe tc));
  views "probe.hw.suppressed" (Hw_probe.suppressed (Taichi.hw_probe tc));
  views "softirq.raised" (Softirq.raised_count (Taichi.softirq tc));
  views "recovery.degraded.engaged" (Recovery.engaged_count (Taichi.recovery tc));
  views "recovery.degraded.rearmed" (Recovery.rearmed_count (Taichi.recovery tc));
  views "fault.ipi.dropped" (Machine.ipis_fault_dropped m);
  views "fault.ipi.delayed" (Machine.ipis_fault_delayed m);
  let cs = Machine.core_state m in
  views "core_state.transitions" (Core_state.transitions cs);
  views "core_state.illegal" (Core_state.illegal_transitions cs);
  let ov = Option.get (Taichi.overload tc) in
  views "overload.transitions" (Overload.transitions ov);
  views "overload.escalations" (Overload.escalations ov);
  views "overload.relaxes" (Overload.relaxes ov);
  List.iter
    (fun cls ->
      views ("overload.shed." ^ Tenant.cls_name cls) (Overload.shed ov cls))
    Tenant.all_classes;
  (* Not vacuous: the run exercised the main event kinds. *)
  let positive name v = checkb (name ^ " > 0") true (v > 0) in
  positive "placements" s.Vcpu_sched.placements;
  positive "context switches" k.Kernel.context_switches;
  positive "core-state transitions" (Core_state.transitions cs);
  positive "probe triggers" (Hw_probe.triggers (Taichi.hw_probe tc));
  positive "overload transitions" (Overload.transitions ov)

let suite =
  [
    ("config ablations", `Quick, test_config_ablations);
    ("sw probe adaptation", `Quick, test_sw_probe_adaptation);
    ("sw probe bounds", `Quick, test_sw_probe_bounds);
    ("sw probe fixed mode", `Quick, test_sw_probe_fixed);
    ("install boots vcpus", `Quick, test_install_boots_vcpus);
    ("cp affinity spans vcpus", `Quick, test_cp_affinity_spans_vcpus);
    ("idle dp core hosts vcpu", `Quick, test_idle_dp_core_hosts_vcpu);
    ("state table tracks placement", `Quick, test_state_table_tracks_placement);
    ("probe evicts vcpu for packet", `Quick, test_probe_evicts_vcpu_for_packet);
    ("no probe: packet waits for slice", `Quick, test_no_probe_packet_waits_for_slice);
    ("slice doubles and resets", `Quick, test_slice_doubles_and_resets);
    ("orchestrator routes and counts", `Quick, test_orchestrator_routes_and_counts);
    ("orchestrator wakes sleeping vcpu", `Quick, test_orchestrator_wakes_sleeping_vcpu);
    ("lock holder rescued", `Quick, test_lock_holder_rescued);
    ( "rescue borrows CP pCPU when DP busy",
      `Quick,
      test_rescue_borrows_cp_pcpu_when_dp_busy );
    ( "watchdog escalates never-releasing holder",
      `Quick,
      check_watchdog_escalates (Config.resilient Config.default) );
    ( "watchdog escalates under overload governor only",
      `Quick,
      check_watchdog_escalates (Config.with_overload Config.default) );
    ("watchdog off when neither armed", `Quick, test_watchdog_off_when_unarmed);
    ("accessors read the counter registry", `Quick, test_accessors_read_registry);
  ]
