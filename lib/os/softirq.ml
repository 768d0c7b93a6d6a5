open Taichi_engine
open Taichi_hw

(* One slot per registered or raised (cpu, vector): its handler and its
   pending bit. Slots live in a per-cpu list (a CPU carries one or two
   vectors), so raising a vector hashes nothing. *)
type slot = {
  vector : int;
  mutable handler : (unit -> unit) option;
  mutable pending : bool;
}

type t = {
  sim : Sim.t;
  machine : Machine.t;
  dispatch_cost : Time_ns.t;
  mutable slots : slot list array;  (* indexed by cpu *)
  h_raised : Counters.handle;
  mutable handled : int;
  mutable coalesced : int;
}

let vector_taichi = 42

let create ?(dispatch_cost = Time_ns.ns 200) machine =
  {
    sim = Machine.sim machine;
    machine;
    dispatch_cost;
    slots = Array.make (Machine.physical_cores machine) [];
    h_raised = Counters.handle (Machine.counters machine) "softirq.raised";
    handled = 0;
    coalesced = 0;
  }

let rec find_in vector = function
  | [] -> None
  | s :: rest -> if s.vector = vector then Some s else find_in vector rest

let find t ~cpu ~vector =
  if cpu < 0 || cpu >= Array.length t.slots then None
  else find_in vector t.slots.(cpu)

let slot t ~cpu ~vector =
  if cpu < 0 then invalid_arg "Softirq: negative cpu";
  match find t ~cpu ~vector with
  | Some s -> s
  | None ->
      if cpu >= Array.length t.slots then begin
        let grown = Array.make (max (cpu + 1) (2 * Array.length t.slots)) [] in
        Array.blit t.slots 0 grown 0 (Array.length t.slots);
        t.slots <- grown
      end;
      let s = { vector; handler = None; pending = false } in
      t.slots.(cpu) <- t.slots.(cpu) @ [ s ];
      s

let register t ~cpu ~vector f = (slot t ~cpu ~vector).handler <- Some f

let raise_softirq t ~cpu ~vector =
  Counters.incr_h (Machine.counters t.machine) t.h_raised;
  let trace = Machine.trace t.machine in
  if Trace.enabled trace then begin
    let core =
      if cpu < Machine.physical_cores t.machine then cpu else Trace.no_core
    in
    Trace.emitf trace ~time:(Sim.now t.sim) ~core ~category:Trace.Cat.softirq
      "raise cpu=%d vec=%d" cpu vector
  end;
  let s = slot t ~cpu ~vector in
  if s.pending then t.coalesced <- t.coalesced + 1
  else begin
    s.pending <- true;
    ignore
      (Sim.after t.sim t.dispatch_cost (fun () ->
           s.pending <- false;
           if cpu < Machine.physical_cores t.machine then
             Accounting.charge (Machine.accounting t.machine) ~core:cpu
               Accounting.Os t.dispatch_cost;
           match s.handler with
           | Some f ->
               t.handled <- t.handled + 1;
               f ()
           | None -> ()))
  end

let pending t ~cpu ~vector =
  match find t ~cpu ~vector with Some s -> s.pending | None -> false

let raised_count t = Counters.get_h (Machine.counters t.machine) t.h_raised
let handled_count t = t.handled
let coalesced_count t = t.coalesced
