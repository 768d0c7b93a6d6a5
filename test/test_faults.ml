(* Tests for the deterministic fault injector and the recovery tracker:
   bit-for-bit reproducibility of the fault plan, the fabric drop/delay
   hook, the bounded boot-drop budget, LAPIC vector loss, state-table
   freeze/force, the arm/stop horizon, and degraded-mode engage/re-arm. *)

open Taichi_engine
open Taichi_hw
open Taichi_accel
open Taichi_core
open Taichi_faults

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let test_vector = 0x40
let boot_vector = 0xF0

(* A bare 4-core machine with registered LAPICs and a delivery counter
   per vector — enough fabric to exercise the injector without a kernel
   or scheduler. *)
let make_machine () =
  let sim = Sim.create () in
  let machine =
    Machine.create
      ~config:{ Machine.default_config with Machine.physical_cores = 4 }
      sim
  in
  let delivered = Array.make 2 0 in
  for i = 0 to 3 do
    let l = Lapic.create ~apic_id:i in
    Lapic.register_handler l test_vector (fun () ->
        delivered.(0) <- delivered.(0) + 1);
    Lapic.register_handler l boot_vector (fun () ->
        delivered.(1) <- delivered.(1) + 1);
    Machine.register_lapic machine l
  done;
  (sim, machine, delivered)

let drain sim = Sim.run sim

(* --- determinism ----------------------------------------------------- *)

let run_fault_plan ~seed =
  let sim, machine, delivered = make_machine () in
  let inj =
    Injector.create ~rng:(Rng.create ~seed) ~machine ~boot_vector
      Injector.storm
  in
  Injector.arm inj ~until:(Time_ns.ms 50);
  for i = 0 to 199 do
    ignore
      (Sim.at sim
         (Time_ns.us (1 + i))
         (fun () ->
           Machine.send_ipi machine ~src:0 ~dst:(i mod 4) ~vector:test_vector))
  done;
  drain sim;
  ( Machine.ipis_fault_dropped machine,
    Machine.ipis_fault_delayed machine,
    delivered.(0),
    Counters.get (Machine.counters machine) "fault.lapic.lost" )

let test_fault_plan_deterministic () =
  let a = run_fault_plan ~seed:1234 in
  let b = run_fault_plan ~seed:1234 in
  checkb "identical fault plan for identical seed" true (a = b);
  let dropped, _delayed, delivered, lost = a in
  (* Every sent IPI is either dropped in the fabric, lost at the LAPIC,
     or delivered (a delayed IPI still delivers). *)
  checki "every IPI accounted for" 200 (dropped + lost + delivered);
  checkb "some faults actually fired" true (dropped > 0 && delivered > 0)

(* --- fabric drop / delay --------------------------------------------- *)

let test_fabric_drop_all () =
  let sim, machine, delivered = make_machine () in
  let profile = { Injector.none with Injector.pname = "x"; ipi_drop_p = 1.0 } in
  let _inj =
    Injector.create ~rng:(Rng.create ~seed:1) ~machine ~boot_vector profile
  in
  for i = 0 to 9 do
    Machine.send_ipi machine ~src:0 ~dst:(i mod 4) ~vector:test_vector
  done;
  drain sim;
  checki "all dropped" 10 (Machine.ipis_fault_dropped machine);
  checki "none delivered" 0 delivered.(0);
  checki "counter matches" 10
    (Counters.get (Machine.counters machine) "fault.ipi.dropped")

let test_fabric_delay_all () =
  let sim, machine, delivered = make_machine () in
  let profile =
    {
      Injector.none with
      Injector.pname = "x";
      ipi_delay_p = 1.0;
      ipi_delay_max = Time_ns.us 10;
    }
  in
  let _inj =
    Injector.create ~rng:(Rng.create ~seed:2) ~machine ~boot_vector profile
  in
  Machine.send_ipi machine ~src:0 ~dst:1 ~vector:test_vector;
  (* At the plain fabric latency the IPI must still be in flight. *)
  Sim.run ~until:(Machine.default_config.Machine.ipi_latency + 1) sim;
  checki "still in flight at base latency" 0 delivered.(0);
  drain sim;
  checki "delivered late" 1 delivered.(0);
  checki "delay counted" 1 (Machine.ipis_fault_delayed machine)

let test_boot_drop_budget () =
  let sim, machine, delivered = make_machine () in
  let profile =
    {
      Injector.none with
      Injector.pname = "x";
      boot_drop_p = 1.0;
      boot_drop_max = 3;
    }
  in
  let _inj =
    Injector.create ~rng:(Rng.create ~seed:3) ~machine ~boot_vector profile
  in
  for i = 0 to 9 do
    Machine.send_ipi machine ~src:0 ~dst:(i mod 4) ~vector:boot_vector
  done;
  drain sim;
  checki "budget bounds the drops" 3
    (Counters.get (Machine.counters machine) "fault.boot.dropped");
  checki "the rest deliver" 7 delivered.(1)

(* --- LAPIC loss ------------------------------------------------------- *)

let test_lapic_loss_filter () =
  let l = Lapic.create ~apic_id:0 in
  let hits = ref 0 in
  Lapic.register_handler l 7 (fun () -> incr hits);
  Lapic.register_handler l 8 (fun () -> incr hits);
  Lapic.set_loss_filter l (Some (fun v -> v = 7));
  Lapic.inject l 7;
  Lapic.inject l 8;
  checki "filtered vector lost" 1 (Lapic.lost_count l);
  checki "other vector delivered" 1 !hits;
  Lapic.set_loss_filter l None;
  Lapic.inject l 7;
  checki "filter removed" 2 !hits

(* --- state-table freeze / force --------------------------------------- *)

let test_state_table_freeze_force () =
  let table = State_table.create ~cores:2 in
  State_table.set table ~core:0 State_table.V_state;
  State_table.freeze table ~core:0;
  State_table.set table ~core:0 State_table.P_state;
  checkb "frozen record keeps stale value" true
    (State_table.get table ~core:0 = State_table.V_state);
  checki "dropped write counted" 1 (State_table.stalled_updates table);
  State_table.force table ~core:0 State_table.P_state;
  checkb "force writes through" true
    (State_table.get table ~core:0 = State_table.P_state);
  checkb "force thaws" false (State_table.frozen table ~core:0);
  State_table.set table ~core:0 State_table.V_state;
  checkb "normal writes resume" true
    (State_table.get table ~core:0 = State_table.V_state)

(* --- arm / stop horizon ------------------------------------------------ *)

let test_injection_stops_at_horizon () =
  let sim, machine, delivered = make_machine () in
  let profile = { Injector.storm with Injector.ipi_drop_p = 1.0 } in
  let inj =
    Injector.create ~rng:(Rng.create ~seed:4) ~machine ~boot_vector profile
  in
  Injector.arm inj ~until:(Time_ns.us 100);
  Machine.send_ipi machine ~src:0 ~dst:1 ~vector:test_vector;
  Sim.run ~until:(Time_ns.ms 1) sim;
  checki "in-window IPI dropped" 1 (Machine.ipis_fault_dropped machine);
  checkb "injector stopped after horizon" false (Injector.active inj);
  Machine.send_ipi machine ~src:0 ~dst:1 ~vector:test_vector;
  drain sim;
  checki "post-horizon IPI passes" 1 delivered.(0);
  checki "no further drops" 1 (Machine.ipis_fault_dropped machine)

(* --- degraded mode ----------------------------------------------------- *)

let resilient_with ~threshold ~window ~quiet =
  {
    Config.default with
    Config.resilience =
      Some
        {
          Config.degraded_threshold = threshold;
          degraded_window = window;
          degraded_quiet = quiet;
        };
  }

let test_degraded_engages_and_rearms () =
  let sim, machine, _ = make_machine () in
  let config =
    resilient_with ~threshold:3 ~window:(Time_ns.us 100)
      ~quiet:(Time_ns.us 200)
  in
  let r = Recovery.create config machine in
  let engaged = ref false and rearmed = ref false in
  Recovery.on_engage r (fun () -> engaged := true);
  Recovery.on_rearm r (fun () -> rearmed := true);
  Recovery.note r ~cls:"test" ~action:"a" ~latency:(Time_ns.us 5);
  Recovery.note r ~cls:"test" ~action:"a" ~latency:(Time_ns.us 5);
  checkb "below threshold" false (Recovery.degraded r);
  Recovery.note r ~cls:"test" ~action:"a" ~latency:(Time_ns.us 5);
  checkb "threshold crossed: degraded" true (Recovery.degraded r);
  checkb "engage callback ran" true !engaged;
  checki "engage counted" 1 (Recovery.engaged_count r);
  checki "counter registry updated" 3
    (Counters.get (Machine.counters machine) "recovery.test.a");
  (* A quiet period re-arms co-scheduling. *)
  Sim.run ~until:(Time_ns.ms 1) sim;
  checkb "re-armed after quiet period" true !rearmed;
  checkb "no longer degraded" false (Recovery.degraded r);
  checki "rearm counted" 1 (Recovery.rearmed_count r)

(* A fault burst landing exactly when the quiet period elapses must not
   slip past the re-arm check: the simulator runs same-timestamp events
   FIFO, so a naive deadline check would re-arm first and the burst would
   re-engage one event later — a spurious rearm/engage flap. The tracker
   defers the decision past the deadline tick, so the burst extends the
   degraded episode instead. *)
let test_burst_at_quiet_boundary_no_double_engage () =
  let sim, machine, _ = make_machine () in
  let quiet = Time_ns.us 200 in
  let config = resilient_with ~threshold:3 ~window:(Time_ns.us 100) ~quiet in
  let r = Recovery.create config machine in
  let rearm_times = ref [] in
  Recovery.on_rearm r (fun () -> rearm_times := Sim.now sim :: !rearm_times);
  for _ = 1 to 3 do
    Recovery.note r ~cls:"test" ~action:"a" ~latency:Time_ns.zero
  done;
  checkb "engaged at t=0" true (Recovery.degraded r);
  (* Second burst exactly at the quiet-period end. *)
  ignore
    (Sim.at sim quiet (fun () ->
         for _ = 1 to 3 do
           Recovery.note r ~cls:"test" ~action:"a" ~latency:Time_ns.zero
         done));
  Sim.run ~until:(Time_ns.ms 2) sim;
  checki "one engage for the whole episode" 1 (Recovery.engaged_count r);
  checki "one re-arm for the whole episode" 1 (Recovery.rearmed_count r);
  checkb "re-armed at the end" false (Recovery.degraded r);
  match !rearm_times with
  | [ t ] ->
      checkb "re-arm waited for quiet after the boundary burst" true
        (t > quiet + quiet)
  | ts -> Alcotest.failf "expected exactly one re-arm, got %d" (List.length ts)

(* Re-arming must restore the pre-degraded placement policy, not merely
   clear the flag: a vCPU-pinned task is unschedulable while degraded
   (vCPUs are evicted and the placement gate is closed) and must run to
   completion once the quiet period re-opens co-scheduling. *)
let test_rearm_restores_placement_policy () =
  let config =
    resilient_with ~threshold:2 ~window:(Time_ns.ms 1)
      ~quiet:(Time_ns.ms 2)
  in
  let sys =
    Taichi_platform.System.create ~seed:11 (Taichi_platform.Policy.Taichi config)
  in
  Taichi_platform.System.warmup sys;
  let tc = Option.get (Taichi_platform.System.taichi sys) in
  let r = Taichi.recovery tc in
  Recovery.note r ~cls:"test" ~action:"burst" ~latency:Time_ns.zero;
  Recovery.note r ~cls:"test" ~action:"burst" ~latency:Time_ns.zero;
  checkb "degraded after burst" true (Recovery.degraded r);
  let t =
    Taichi_os.Task.create ~name:"pinned"
      ~step:
        (Taichi_os.Program.to_step
           [ Taichi_os.Program.compute (Time_ns.us 500) ])
      ()
  in
  t.Taichi_os.Task.affinity <-
    List.map (fun v -> v.Taichi_virt.Vcpu.kcpu) (Taichi.vcpus tc);
  Taichi_platform.System.spawn_cp sys t;
  Taichi_platform.System.advance sys (Time_ns.ms 1);
  checkb "still degraded mid-quiet" true (Recovery.degraded r);
  checkb "pinned task starved while degraded" false (Taichi_os.Task.is_finished t);
  Taichi_platform.System.advance sys (Time_ns.ms 10);
  checkb "re-armed after quiet" false (Recovery.degraded r);
  checki "one re-arm" 1 (Recovery.rearmed_count r);
  checkb "pinned task ran once placement resumed" true (Taichi_os.Task.is_finished t)

(* The overload governor's pin: force_engage holds degraded mode open
   through any quiet period; force_release re-arms immediately. Both are
   idempotent. *)
let test_forced_engage_pins_and_release_rearms () =
  let sim, machine, _ = make_machine () in
  let config =
    resilient_with ~threshold:2 ~window:(Time_ns.us 100)
      ~quiet:(Time_ns.us 200)
  in
  let r = Recovery.create config machine in
  Recovery.note r ~cls:"test" ~action:"a" ~latency:Time_ns.zero;
  Recovery.note r ~cls:"test" ~action:"a" ~latency:Time_ns.zero;
  checkb "engaged" true (Recovery.degraded r);
  Recovery.force_engage r;
  Recovery.force_engage r;
  checkb "forced" true (Recovery.forced r);
  checki "idempotent force counted once" 1
    (Counters.get (Machine.counters machine) "recovery.degraded.forced");
  (* Far past the fault-side quiet period: the pin blocks the re-arm. *)
  Sim.run ~until:(Time_ns.ms 5) sim;
  checkb "still degraded under the pin" true (Recovery.degraded r);
  checki "no quiet re-arm under the pin" 0 (Recovery.rearmed_count r);
  Recovery.force_release r;
  checkb "release re-arms immediately" false (Recovery.degraded r);
  checki "one re-arm" 1 (Recovery.rearmed_count r);
  Recovery.force_release r;
  checki "release idempotent" 1 (Recovery.rearmed_count r);
  checki "one engage end to end" 1 (Recovery.engaged_count r)

(* force_engage works without [resilience]: the governor carries its own
   opt-in, so load-driven static partitioning must not depend on the
   fault-side flag. *)
let test_forced_engage_without_resilience () =
  let _, machine, _ = make_machine () in
  let config = Config.default in
  let r = Recovery.create config machine in
  let engaged = ref false and rearmed = ref false in
  Recovery.on_engage r (fun () -> engaged := true);
  Recovery.on_rearm r (fun () -> rearmed := true);
  Recovery.force_engage r;
  checkb "engages without resilience" true (Recovery.degraded r);
  checkb "engage callback ran" true !engaged;
  Recovery.force_release r;
  checkb "release re-arms" false (Recovery.degraded r);
  checkb "rearm callback ran" true !rearmed

(* Without [resilience] there is no window to trip: more events than the
   default threshold, all at one instant (inside any window), must not
   engage degraded mode. *)
let test_degraded_inert_without_resilience () =
  let _, machine, _ = make_machine () in
  let config = { Config.default with Config.resilience = None } in
  let r = Recovery.create config machine in
  let n = (2 * Config.default_resilience.Config.degraded_threshold) + 1 in
  for _ = 1 to n do
    Recovery.note r ~cls:"test" ~action:"a" ~latency:Time_ns.zero
  done;
  checkb "never degrades without resilience" false (Recovery.degraded r);
  checki "events still counted" n (Recovery.events r)

let suite =
  [
    ("fault plan deterministic", `Quick, test_fault_plan_deterministic);
    ("fabric drops when told", `Quick, test_fabric_drop_all);
    ("fabric delay is additive", `Quick, test_fabric_delay_all);
    ("boot drops bounded by budget", `Quick, test_boot_drop_budget);
    ("lapic loss filter", `Quick, test_lapic_loss_filter);
    ("state table freeze and force", `Quick, test_state_table_freeze_force);
    ("injection stops at horizon", `Quick, test_injection_stops_at_horizon);
    ("degraded engages and re-arms", `Quick, test_degraded_engages_and_rearms);
    ( "burst at quiet boundary does not double-engage",
      `Quick,
      test_burst_at_quiet_boundary_no_double_engage );
    ( "re-arm restores placement policy",
      `Quick,
      test_rearm_restores_placement_policy );
    ( "forced engage pins, release re-arms",
      `Quick,
      test_forced_engage_pins_and_release_rearms );
    ( "forced engage without resilience",
      `Quick,
      test_forced_engage_without_resilience );
    ( "degraded inert without resilience",
      `Quick,
      test_degraded_inert_without_resilience );
  ]
