open Taichi_engine
open Taichi_hw
open Taichi_accel

let irq_latency = Time_ns.ns 300 (* accelerator-to-core IRQ delivery *)

type t = {
  machine : Machine.t;
  sim : Sim.t;
  table : State_table.t;
  sched : Vcpu_sched.t;
  mutable pending : bool array;  (* core -> probe IRQ in flight *)
  h_triggers : Counters.handle;
  h_suppressed : Counters.handle;
  mutable suppressor : (core:int -> bool) option;
}

let is_pending t core =
  core >= 0 && core < Array.length t.pending && t.pending.(core)

let fire t ~core =
  if core >= Array.length t.pending then begin
    let grown = Array.make (max (core + 1) (2 * Array.length t.pending)) false in
    Array.blit t.pending 0 grown 0 (Array.length t.pending);
    t.pending <- grown
  end;
  t.pending.(core) <- true;
  Counters.incr_h (Machine.counters t.machine) t.h_triggers;
  let trace = Machine.trace t.machine in
  if Trace.enabled trace then
    Trace.emitf trace ~time:(Sim.now t.sim) ~core ~category:Trace.Cat.probe_hw
      "irq scheduled in %dns" irq_latency;
  ignore
    (Sim.after t.sim irq_latency (fun () ->
         t.pending.(core) <- false;
         Vcpu_sched.on_probe_irq t.sched ~core))

let install config machine table pipeline sched =
  let t =
    {
      machine;
      sim = Machine.sim machine;
      table;
      sched;
      pending = Array.make (Machine.physical_cores machine) false;
      h_triggers = Counters.handle (Machine.counters machine) "probe.hw.triggers";
      h_suppressed =
        Counters.handle (Machine.counters machine) "probe.hw.suppressed";
      suppressor = None;
    }
  in
  if config.Config.hw_probe then
    Pipeline.set_probe_hook pipeline
      (Some
         (fun pkt ->
           let core = pkt.Packet.dst_core in
           match State_table.get t.table ~core with
           | State_table.P_state -> ()
           | State_table.V_state ->
               if is_pending t core then
                 Counters.incr_h (Machine.counters t.machine) t.h_suppressed
               else
                 (* The injected suppressor models the accelerator failing
                    to raise the IRQ it should have: the packet simply goes
                    undetected and the software probe / slice expiry must
                    cover for it. *)
                 let suppressed_by_fault =
                   match t.suppressor with
                   | Some f -> f ~core
                   | None -> false
                 in
                 if not suppressed_by_fault then fire t ~core));
  t

let set_suppressor t f = t.suppressor <- f

(* A misfire is a spurious probe IRQ: the accelerator interrupts a core the
   scheduler believes needs no eviction. The normal pending dedup still
   applies so at most one IRQ per core is in flight. *)
let misfire t ~core =
  if not (is_pending t core) then fire t ~core

let triggers t = Counters.get_h (Machine.counters t.machine) t.h_triggers
let suppressed t = Counters.get_h (Machine.counters t.machine) t.h_suppressed
