(* The System-backed fleet: N full SmartNIC systems on the generic
   Taichi_fleet epoch substrate, under a region-wide VM-startup storm
   with NIC-level fault domains and cross-NIC tenant failover.

   Determinism layering (DESIGN.md §15): each NIC is a complete private
   universe — its own Sim, Machine, Rng (split from the root seed by NIC
   name) and counter registry — advanced epoch by epoch on the fleet's
   worker domains. Everything cross-NIC (the exchange, the fault plan,
   the failover manager's placement decisions) runs in the sequential
   controller phase between epochs, so the whole run is byte-identical
   at any fleet jobs count and any sweep --jobs count.

   Failover protocol: when the plan crashes NIC i at the end of epoch e,
   the controller snapshots i's committed dynamic tenants, then (failover
   on) re-places each — heaviest first — on the survivor with the least
   admitted weight, preferring survivors whose governor is not in
   backpressure, through the survivor's refusable
   Lifecycle.admit_with_backoff: refusals and abandons are pushback, not
   errors, and every outcome lands as a [fleet.failover.*] receipt in the
   survivor's registry. Failover off: the same tenants are recorded lost
   ([fleet.failover.lost] on the crashed NIC). *)

open Taichi_engine
open Taichi_hw
open Taichi_os
open Taichi_accel
open Taichi_core
open Taichi_faults
open Taichi_fleet
open Taichi_workloads
open Taichi_controlplane

let guardrail = Config.default_overload.Config.p99_bound

(* Boot tenants per NIC (the fleet victims) — same contract discipline as
   exp_churn, relaxed to the fleet guardrail. *)
let boot_specs =
  [ Tenant.spec ~weight:2 "alpha"; Tenant.spec "bravo" ]

type params = {
  nics : int;
  epochs : int;
  epoch_len : Time_ns.t;  (** simulated time per epoch *)
  density : float;  (** VM-startup storm intensity (exp_overload scale) *)
  governor : bool;
  failover : bool;
  faults : Nic_faults.spec;
  fleet_jobs : int;  (** worker domains inside the fleet *)
}

let default_params =
  {
    nics = 8;
    epochs = 48;
    epoch_len = Time_ns.of_us_f 2500.;
    density = 4.0;
    governor = true;
    failover = true;
    faults = Nic_faults.quiet;
    fleet_jobs = 4;
  }

type receipt = {
  tenant : string;
  weight : int;
  from_nic : int;
  to_nic : int;
  at_epoch : int;
}

type nic_report = {
  nr_nic : int;
  nr_state : string;
  nr_p99_us : float;
  nr_guard_ok : bool;
  nr_packets : int;
  nr_vms : int;  (** VM startups completed on this NIC *)
  nr_admitted : int;
  nr_rpc_sent : int;
  nr_rpc_completed : int;
  nr_rpc_retries : int;
  nr_rpc_timeouts : int;
  nr_rpc_abandoned : int;
  nr_exch_sent : int;
  nr_exch_delivered : int;
  nr_exch_lost : int;
}

type report = {
  r_nics : nic_report list;
  r_crashed : int list;
  r_attainment : float;  (** surviving NICs holding the DP p99 guardrail *)
  r_survivors : int;
  r_committed : receipt list;  (** committed tenants on NICs at crash time *)
  r_replaced : receipt list;
  r_lost : receipt list;  (** failover off: tenants that died with the NIC *)
  r_refused : int;  (** failover admission pushbacks, fleet-wide *)
  r_abandoned : int;
  r_forced_drains : int;
  r_overruns_admitted : int;
  r_fingerprint : string;
}

(* Per-NIC universe handed to the generic fleet as its 'nic. The mutable
   refs are NIC-local: written only by this NIC's worker domain or by the
   sequential controller (never both within a phase), which the
   Domain.join barrier between phases makes race-free. *)
type env = {
  idx : int;
  sys : System.t;
  ectx : Run_ctx.t;  (** per-NIC experiment label, shared sink *)
  vm_rng : Rng.t;
  vm_params : Vm_lifecycle.params;
  locks : Task.spinlock list;
  recorder : Taichi_metrics.Recorder.t;
  burst_rng : Rng.t;
  mutable rpc : env Rpc.t option;
  mutable vm_count : int;
  mutable carry : float;  (** fractional storm arrivals carried over *)
  mutable tenants : (string * int) list;  (** committed dynamic tenants *)
  mutable replaced_in : receipt list;  (** failover arrivals, newest first *)
  mutable abandoned_in : receipt list;
  mutable overrun_next : int;
}

let counters_of env = Machine.counters (System.machine env.sys)

let emit env fmt =
  Printf.ksprintf
    (fun msg ->
      let machine = System.machine env.sys in
      Trace.emit (Machine.trace machine)
        ~time:(Sim.now (System.sim env.sys))
        ~category:Trace.Cat.fleet msg)
    fmt

(* --- per-NIC construction ------------------------------------------------ *)

let make_config p =
  let c = Config.no_hw_probe Config.default in
  let c = Config.with_tenants c boot_specs in
  let c = if p.governor then Config.with_overload c else c in
  Config.with_churn c

let lifecycle_of env =
  match System.lifecycle env.sys with
  | Some lc -> lc
  | None -> failwith "fleet_run: NIC built without a churn lifecycle"

let dyn_name ~nic n = Printf.sprintf "dyn-n%d-%d" nic n

let cp_task env ~tenant ~work ~name =
  let rng = Rng.split (System.rng env.sys) ("fleet-" ^ name) in
  let params =
    { Synth_cp.default_params with Synth_cp.total_work = work; phases = 3 }
  in
  Synth_cp.make ~tenant ~rng ~params ~locks:[] ~affinity:[] ~name ()

let spawn_tenant_work env ~tenant ~count ~work ~tag =
  for i = 1 to count do
    System.spawn_cp ~tenant env.sys
      (cp_task env ~tenant ~work
         ~name:(Printf.sprintf "%s-%d-%d" tag tenant i))
  done

let make_env ~ctx ~seed ~nic_idx p =
  let nic_seed =
    (* Per-NIC universes decorrelate through the root RNG's named split;
       the int folds the stream down to a System seed. *)
    Rng.int (Rng.split (Rng.create ~seed) (Printf.sprintf "nic%d" nic_idx))
      max_int
  in
  let label =
    Printf.sprintf "%s.nic%02d" (Run_ctx.experiment ctx) nic_idx
  in
  let ectx = Run_ctx.with_experiment ctx label in
  let sys =
    System.create ~ctx:ectx ~seed:nic_seed (Policy.Taichi (make_config p))
  in
  System.warmup sys;
  let rng = System.rng sys in
  let vm_rng = Rng.split rng "fleet-storm" in
  let vm_params = Exp_common.vm_params sys ~rng:vm_rng ~density:p.density in
  {
    idx = nic_idx;
    sys;
    ectx;
    vm_rng;
    vm_params;
    locks =
      List.init 4 (fun i ->
          Task.spinlock (Printf.sprintf "fleet-dev-%d-%d" nic_idx i));
    recorder = Taichi_metrics.Recorder.create "vm.startup";
    burst_rng = Rng.split rng "fleet-burst";
    rpc = None;
    vm_count = 0;
    carry = 0.0;
    tenants = [];
    replaced_in = [];
    abandoned_in = [];
    overrun_next = 0;
  }

(* --- workload ------------------------------------------------------------- *)

(* One epoch's slice of the region-wide VM-startup storm: the diurnal ×
   flash-crowd factor modulates the per-epoch arrival budget; fractional
   arrivals carry to the next epoch so the long-run rate matches the
   curve exactly. *)
let storm_epoch env ~epoch ~epochs ~epoch_len ~density ~crowds =
  let phase = float_of_int epoch /. float_of_int (max 1 epochs) in
  let factor = Production_trace.load_factor ~crowds ~phase () in
  let budget = env.carry +. (density /. 4.0 *. factor) in
  let count = int_of_float budget in
  env.carry <- budget -. float_of_int count;
  if count > 0 then begin
    let sim = System.sim env.sys in
    let gap = epoch_len / (count + 1) in
    for i = 1 to count do
      env.vm_count <- env.vm_count + 1;
      let task =
        Vm_lifecycle.startup_task ~sim ~rng:env.vm_rng ~params:env.vm_params
          ~locks:env.locks ~affinity:[]
          ~name:(Printf.sprintf "vm-n%d-%d" env.idx env.vm_count)
          ~recorder:env.recorder ()
      in
      ignore
        (Sim.after sim (gap * i) (fun () ->
             System.spawn_cp ~cls:Overload.Standard env.sys task))
    done
  end

(* A browned NIC is slow, not dead: every epoch it eats an extra burst of
   background packets, which is what drags its DP tail. *)
let brownout_load env =
  let client = System.client env.sys in
  let dp_cores = Array.of_list (System.dp_cores env.sys) in
  for _ = 1 to 384 do
    let core = dp_cores.(Rng.int env.burst_rng (Array.length dp_cores)) in
    Client.submit_background client ~kind:Packet.Net_rx ~size:1400 ~core
  done

(* The RPC ping the NICs exchange every epoch: the server side answers
   and absorbs a small DP burst on behalf of the caller — the cross-NIC
   coupling that makes fabric loss observable in the data plane. *)
let serve_ping env ~src:_ body =
  let client = System.client env.sys in
  let dp_cores = Array.of_list (System.dp_cores env.sys) in
  for _ = 1 to 24 do
    let core = dp_cores.(Rng.int env.burst_rng (Array.length dp_cores)) in
    Client.submit_background client ~kind:Packet.Net_rx ~size:1400 ~core
  done;
  Some ("ack:" ^ body)

(* --- failover ------------------------------------------------------------- *)

(* Admitted dynamic weight currently placed on a NIC — the spread key. *)
let placed_weight env =
  List.fold_left (fun acc (_, w) -> acc + w) 0 env.tenants

let survivor_score fleet i =
  let env = Fleet.nic fleet i in
  (* Backpressured survivors rank behind free ones at any weight. *)
  let bp = if System.cp_backpressure env.sys then 1 else 0 in
  (bp, placed_weight env, i)

let pick_survivor fleet ~exclude =
  let candidates =
    List.filter (fun i -> not (List.mem i exclude)) (Fleet.survivors fleet)
  in
  match candidates with
  | [] -> None
  | first :: rest ->
      Some
        (List.fold_left
           (fun best i ->
             if survivor_score fleet i < survivor_score fleet best then i
             else best)
           first rest)

let replace_tenant fleet ~from_nic ~exclude ~at_epoch (name, weight) =
  match pick_survivor fleet ~exclude:(from_nic :: exclude) with
  | None -> None
  | Some dst ->
      let env = Fleet.nic fleet dst in
      let lc = lifecycle_of env in
      let counters = counters_of env in
      (* Count the assignment into the spread key immediately: a second
         re-placement in the same crash must see this one. The entry is
         confirmed (kept) on admission and withdrawn on abandon. *)
      env.tenants <- env.tenants @ [ (name, weight) ];
      emit env "failover try tenant=%s from=%d to=%d epoch=%d" name from_nic
        dst at_epoch;
      Lifecycle.admit_with_backoff lc
        ~on_refused:(fun _ -> Counters.incr counters "fleet.failover.refused")
        (Tenant.spec ~weight name)
        ~on_admitted:(fun id ->
          Counters.incr counters "fleet.failover.replaced";
          emit env "failover placed tenant=%s from=%d to=%d tenant_id=%d"
            name from_nic dst id;
          env.replaced_in <-
            { tenant = name; weight; from_nic; to_nic = dst; at_epoch }
            :: env.replaced_in;
          spawn_tenant_work env ~tenant:id ~count:2 ~work:(Time_ns.ms 1)
            ~tag:"fo")
        ~on_abandoned:(fun _ ->
          Counters.incr counters "fleet.failover.abandoned";
          emit env "failover abandoned tenant=%s from=%d to=%d" name from_nic
            dst;
          env.abandoned_in <-
            { tenant = name; weight; from_nic; to_nic = dst; at_epoch }
            :: env.abandoned_in;
          env.tenants <-
            List.filter (fun (n, _) -> n <> name) env.tenants);
      Some dst

(* Drain-window overrun during failover: admit a short-lived tenant on
   the target NIC, hand it work sized far past the drain window, retire
   it under that work — the graceful poll cannot win, the watchdog
   escalation must (exp_churn's overrun driver, aimed by the fleet
   plan). *)
let drain_overrun env =
  let lc = lifecycle_of env in
  let n = env.overrun_next in
  env.overrun_next <- n + 1;
  match Lifecycle.admit lc (Tenant.spec (Printf.sprintf "ovr-n%d-%d" env.idx n)) with
  | Error _ -> false
  | Ok id ->
      emit env "overrun pinned tenant_id=%d" id;
      spawn_tenant_work env ~tenant:id ~count:1 ~work:(Time_ns.ms 8)
        ~tag:"ovr";
      ignore
        (Sim.after (System.sim env.sys) (Time_ns.us 200) (fun () ->
             Lifecycle.retire lc ~tenant:id));
      true

(* --- the run -------------------------------------------------------------- *)

let p99_us_of hist =
  if Histogram.count hist = 0 then 0.0
  else float_of_int (Histogram.percentile hist 99.0) /. 1e3

let fingerprint envs extras =
  let buf = Buffer.create 1024 in
  List.iter
    (fun env ->
      Buffer.add_string buf (Printf.sprintf "nic%d:" env.idx);
      List.iter
        (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "%s=%d;" k v))
        (Counters.dump (counters_of env)))
    envs;
  List.iter (fun s -> Buffer.add_string buf (s ^ ";")) extras;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let run ?(ctx = Run_ctx.default) ~seed p =
  if p.nics < 2 then invalid_arg "Fleet_run.run: need at least 2 NICs";
  let root = Rng.create ~seed in
  let crowds = Production_trace.flash_crowds (Rng.split root "crowds") ~n:2 in
  let plan =
    Nic_faults.plan ~rng:(Rng.split root "nic-faults") ~nics:p.nics
      ~epochs:p.epochs p.faults
  in
  let envs =
    Array.init p.nics (fun i -> make_env ~ctx ~seed ~nic_idx:i p)
  in
  let fleet =
    Fleet.create ~nics:envs
      ~counters:(Array.map counters_of envs)
      ~emit:(fun ~nic msg -> emit envs.(nic) "%s" msg)
      ()
  in
  Array.iter
    (fun env ->
      let rpc =
        Rpc.create ~timeout:2 ~retry_base:1 ~retry_cap:4 ~max_attempts:3
          fleet ~nic:env.idx
      in
      Rpc.register rpc ~tag:"ping" (fun ~src body -> serve_ping env ~src body);
      env.rpc <- Some rpc)
    envs;
  (* Commit one dynamic tenant per NIC before the storm: the population
     the failover oracle protects. Weights 1..3 give the spread policy
     something to balance. *)
  Array.iter
    (fun env ->
      let weight = 1 + (env.idx mod 3) in
      let name = dyn_name ~nic:env.idx 0 in
      match Lifecycle.admit (lifecycle_of env) (Tenant.spec ~weight name) with
      | Ok id ->
          env.tenants <- [ (name, weight) ];
          spawn_tenant_work env ~tenant:id ~count:2 ~work:(Time_ns.ms 1)
            ~tag:"seed"
      | Error _ ->
          failwith
            (Printf.sprintf "fleet_run: NIC %d refused its boot-time tenant"
               env.idx))
    envs;
  (* Steady background per NIC for the whole storm window (the same mix
     exp_overload's guardrail contrast was proven on). *)
  let horizon = p.epochs * p.epoch_len in
  Array.iter
    (fun env ->
      let sim = System.sim env.sys in
      let until = Sim.now sim + horizon in
      Exp_common.start_bg_dp env.sys ~target:0.25 ~storage_target:0.12 ~until;
      Exp_common.start_bg_cp env.sys;
      Exp_common.start_cp_churn env.sys ~period:(Time_ns.us 300)
        ~work:(Time_ns.us 200) ~until)
    envs;
  (* Controller state the epoch loop accumulates (sequential phase only). *)
  let committed = ref [] in
  let lost = ref [] in
  let crashed = ref [] in
  let forced_overruns = ref 0 in
  (* Abandoned-receipt high-water mark per NIC: the controller re-places
     each abandoned tenant exactly once per abandon, on a different
     survivor (the one that just gave up is excluded for that round). *)
  let retried = Array.make p.nics 0 in
  (* Overrun events whose pin admission was refused under storm
     backpressure: retried every epoch until one lands. *)
  let pending_overruns = ref [] in
  let deliver ~nic m =
    let env = envs.(nic) in
    ignore (Rpc.deliver (Option.get env.rpc) m : bool)
  in
  let advance ~nic ~epoch =
    let env = envs.(nic) in
    Rpc.tick (Option.get env.rpc) ~epoch;
    if Fleet.state fleet nic = Fleet.Browned then brownout_load env;
    storm_epoch env ~epoch ~epochs:p.epochs ~epoch_len:p.epoch_len
      ~density:p.density ~crowds;
    (* One ping per epoch, round-robin across the rack: nic+1+k mod n
       with k in [0, n-2] never lands back on the caller. *)
    let peer = (nic + 1 + (epoch mod (p.nics - 1))) mod p.nics in
    Rpc.call (Option.get env.rpc) ~dst:peer ~tag:"ping"
      (Printf.sprintf "e%d" epoch)
      ~on_reply:(fun _ -> ())
      ~on_abandon:(fun () -> ());
    System.advance env.sys p.epoch_len
  in
  let control ~epoch =
    List.iter
      (fun (e, event) ->
        if e = epoch then
          match event with
          | Nic_faults.Crash i when Fleet.alive fleet i ->
              let env = envs.(i) in
              let victims = env.tenants in
              List.iter
                (fun (name, weight) ->
                  committed :=
                    {
                      tenant = name;
                      weight;
                      from_nic = i;
                      to_nic = -1;
                      at_epoch = epoch;
                    }
                    :: !committed)
                victims;
              Fleet.crash fleet i;
              crashed := i :: !crashed;
              if p.failover then
                (* Heaviest first so the spread policy sees the big lanes
                   early; ties re-place in name order. *)
                List.iter
                  (fun t ->
                    ignore
                      (replace_tenant fleet ~from_nic:i ~exclude:[]
                         ~at_epoch:epoch t))
                  (List.stable_sort
                     (fun (_, a) (_, b) -> compare b a)
                     victims)
              else
                List.iter
                  (fun (name, weight) ->
                    Counters.incr (counters_of env) "fleet.failover.lost";
                    lost :=
                      {
                        tenant = name;
                        weight;
                        from_nic = i;
                        to_nic = -1;
                        at_epoch = epoch;
                      }
                      :: !lost)
                  victims
          | Nic_faults.Crash _ -> ()
          | Nic_faults.Brownout_start i -> Fleet.brownout fleet i
          | Nic_faults.Brownout_end i -> Fleet.recover fleet i
          | Nic_faults.Partition_start groups ->
              Fleet.partition fleet ~groups
          | Nic_faults.Partition_end -> Fleet.heal fleet
          | Nic_faults.Drain_overrun i ->
              if Fleet.alive fleet i then
                if drain_overrun envs.(i) then incr forced_overruns
                else pending_overruns := !pending_overruns @ [ i ])
      plan;
    (match !pending_overruns with
    | [] -> ()
    | pending ->
        pending_overruns :=
          List.filter
            (fun i ->
              Fleet.alive fleet i
              &&
              if drain_overrun envs.(i) then begin
                incr forced_overruns;
                false
              end
              else true)
            pending);
    (* Re-place tenants whose failover admission was abandoned during
       the parallel phase: a backpressured survivor exhausting its
       backoff budget is pushback, not loss — the controller moves the
       tenant to the next-best survivor. *)
    if p.failover then
      Array.iteri
        (fun i env ->
          let receipts = env.abandoned_in in
          let len = List.length receipts in
          if len > retried.(i) then begin
            let fresh = List.filteri (fun k _ -> k < len - retried.(i)) receipts in
            retried.(i) <- len;
            List.iter
              (fun r ->
                ignore
                  (replace_tenant fleet ~from_nic:r.from_nic
                     ~exclude:[ r.to_nic ] ~at_epoch:epoch
                     (r.tenant, r.weight)))
              (List.rev fresh)
          end)
        envs
  in
  Fleet.run ~jobs:p.fleet_jobs ~control fleet ~epochs:p.epochs ~deliver
    ~advance;
  (* Settle: pending failover backoffs, drains and the governor's re-arm
     run out on every survivor, fault- and storm-free. *)
  (* The settle runs in steps, retrying still-refused overrun pins
     between them: a governor that stayed backpressured through the last
     storm epoch re-arms within a step or two, and the drain-overrun
     escalation then collides with the failover resolution below — the
     exact window the fault plan aims for. *)
  let retry_pending_overruns ~fallback () =
    pending_overruns :=
      List.filter
        (fun i ->
          let try_on j = Fleet.alive fleet j && drain_overrun envs.(j) in
          let pinned =
            try_on i
            || (fallback
               && List.exists
                    (fun j -> j <> i && try_on j)
                    (Fleet.survivors fleet))
          in
          if pinned then incr forced_overruns;
          not pinned)
        !pending_overruns
  in
  for _ = 1 to 4 do
    List.iter
      (fun i -> System.advance envs.(i).sys (Time_ns.ms 5))
      (Fleet.survivors fleet);
    retry_pending_overruns ~fallback:false ()
  done;
  (* Post-storm resolution: the 20 ms settle exceeds the longest
     admit_with_backoff chain (~11 ms), so every failover admission is
     now terminal — anything committed but not re-placed was abandoned
     everywhere it was tried. The storm is over and the governor has
     re-armed, so direct admissions in survivor-score order place the
     stragglers; a bounded number of advance-and-retry rounds covers a
     governor still stepping down its ladder. *)
  if p.failover then begin
    let placed name from_nic =
      Array.exists
        (fun env ->
          List.exists
            (fun r -> r.tenant = name && r.from_nic = from_nic)
            env.replaced_in)
        envs
    in
    let sorted_survivors ~exclude =
      List.sort
        (fun a b -> compare (survivor_score fleet a) (survivor_score fleet b))
        (List.filter
           (fun i -> not (List.mem i exclude))
           (Fleet.survivors fleet))
    in
    let place_direct c =
      let rec try_nics = function
        | [] -> false
        | dst :: rest -> (
            let env = envs.(dst) in
            match
              Lifecycle.admit (lifecycle_of env)
                (Tenant.spec ~weight:c.weight c.tenant)
            with
            | Ok id ->
                Counters.incr (counters_of env) "fleet.failover.replaced";
                emit env
                  "failover placed tenant=%s from=%d to=%d tenant_id=%d \
                   post-storm"
                  c.tenant c.from_nic dst id;
                env.tenants <- env.tenants @ [ (c.tenant, c.weight) ];
                env.replaced_in <-
                  { c with to_nic = dst; at_epoch = p.epochs }
                  :: env.replaced_in;
                true
            | Error _ ->
                Counters.incr (counters_of env) "fleet.failover.refused";
                try_nics rest)
      in
      try_nics (sorted_survivors ~exclude:[ c.from_nic ])
    in
    let rec resolve round =
      let unresolved =
        List.filter
          (fun c -> not (placed c.tenant c.from_nic))
          (List.rev !committed)
      in
      if unresolved <> [] && round < 10 then begin
        List.iter (fun c -> ignore (place_direct c : bool)) unresolved;
        List.iter
          (fun i -> System.advance envs.(i).sys (Time_ns.ms 5))
          (Fleet.survivors fleet);
        resolve (round + 1)
      end
    in
    resolve 0
  end;
  (* A drain overrun pinned in a late settle step still needs its retire
     to fire (200 us after the pin) and the watchdog to escalate and
     reap; give overrun cells a drain tail. A pin whose home NIC kept
     refusing (e.g. its spare pool went to re-placed tenants) falls back
     to any survivor first — the overrun is about the drain watchdog,
     not about which NIC hosts it. *)
  if p.faults.Nic_faults.overruns > 0 then begin
    retry_pending_overruns ~fallback:true ();
    List.iter
      (fun i -> System.advance envs.(i).sys (Time_ns.ms 15))
      (Fleet.survivors fleet)
  end;
  (* Harvest in NIC order: audit survivors (a crashed NIC froze
     mid-flight — its invariants are allowed to be mid-transition), then
     export every NIC's run under its per-NIC label. *)
  let survivors = Fleet.survivors fleet in
  Array.iter
    (fun env ->
      if List.mem env.idx survivors then
        Exp_common.check_audit ~ctx:env.ectx ~seed env.sys;
      let sim = System.sim env.sys in
      Run_ctx.record_engine_events env.ectx
        ~scheduled:(Sim.events_scheduled sim)
        ~processed:(Sim.events_processed sim);
      if Run_ctx.tracing env.ectx then
        Exp_common.harvest_run ~ctx:env.ectx ~seed env.sys)
    envs;
  let nic_reports =
    Array.to_list
      (Array.map
         (fun env ->
           let get = Counters.get (counters_of env) in
           let hist = System.dp_latency_hist env.sys in
           let p99 = p99_us_of hist in
           {
             nr_nic = env.idx;
             nr_state = Fleet.state_label (Fleet.state fleet env.idx);
             nr_p99_us = p99;
             nr_guard_ok = p99 <= float_of_int guardrail /. 1e3;
             nr_packets = Histogram.count hist;
             nr_vms = Taichi_metrics.Recorder.count env.recorder;
             nr_admitted = get "churn.admitted";
             nr_rpc_sent = get "fleet.rpc.sent";
             nr_rpc_completed = get "fleet.rpc.completed";
             nr_rpc_retries = get "fleet.rpc.retries";
             nr_rpc_timeouts = get "fleet.rpc.timeouts";
             nr_rpc_abandoned = get "fleet.rpc.abandoned";
             nr_exch_sent = get "fleet.exchange.sent";
             nr_exch_delivered = get "fleet.exchange.delivered";
             nr_exch_lost =
               get "fleet.exchange.lost_crash"
               + get "fleet.exchange.lost_down"
               + get "fleet.exchange.lost_partition";
           })
         envs)
  in
  let holding =
    List.filter
      (fun r -> r.nr_state <> "crashed" && r.nr_guard_ok)
      nic_reports
  in
  let n_survivors = List.length survivors in
  let replaced =
    List.concat_map (fun env -> List.rev env.replaced_in)
      (Array.to_list envs)
  in
  let abandoned =
    List.concat_map (fun env -> List.rev env.abandoned_in)
      (Array.to_list envs)
  in
  let sum_counter name =
    Array.fold_left (fun acc env -> acc + Counters.get (counters_of env) name)
      0 envs
  in
  {
    r_nics = nic_reports;
    r_crashed = List.rev !crashed;
    r_attainment =
      (if n_survivors = 0 then 0.0
       else float_of_int (List.length holding) /. float_of_int n_survivors);
    r_survivors = n_survivors;
    r_committed = List.rev !committed;
    r_replaced = replaced;
    r_lost = List.rev !lost;
    r_refused = sum_counter "fleet.failover.refused";
    r_abandoned = List.length abandoned;
    r_forced_drains = sum_counter "churn.drain_forced";
    r_overruns_admitted = !forced_overruns;
    r_fingerprint =
      fingerprint (Array.to_list envs)
        (List.map
           (fun r -> Printf.sprintf "p99.%d=%.3f" r.nr_nic r.nr_p99_us)
           nic_reports);
  }
