open Taichi_engine

type handle = {
  time : Time_ns.t;
  mutable state : [ `Pending | `Fired | `Cancelled ];
  callback : unit -> unit;
  owner : t;
}

and t = {
  mutable clock : Time_ns.t;
  mutable seq : int;
  heap : handle Pheap.t;
  live : int ref;
  mutable fired : int;
  mutable compactions : int;
}

let create () =
  {
    clock = 0;
    seq = 0;
    heap = Pheap.create ();
    live = ref 0;
    fired = 0;
    compactions = 0;
  }

let now sim = sim.clock

let at sim time callback =
  if time < sim.clock then
    invalid_arg
      (Printf.sprintf "Sim.at: time %d is before now %d" time sim.clock);
  let h = { time; state = `Pending; callback; owner = sim } in
  Pheap.push sim.heap ~key:time ~seq:sim.seq h;
  sim.seq <- sim.seq + 1;
  incr sim.live;
  h

let after sim delay callback =
  if delay < 0 then invalid_arg "Sim.after: negative delay";
  at sim (sim.clock + delay) callback

let immediate sim callback = at sim sim.clock callback

(* Cancelled events are tombstones: they stay in the heap and are dropped
   lazily on pop. [dead_events] is how many tombstones the heap currently
   holds; once they outnumber live events ~2:1 (and are past a floor that
   keeps tiny sims from churning) the heap is rebuilt in place. *)
let dead_events sim = Pheap.length sim.heap - !(sim.live)

let compact_floor = 64

let maybe_compact sim =
  let dead = dead_events sim in
  if dead > compact_floor && dead > 2 * !(sim.live) then begin
    Pheap.compact sim.heap ~keep:(fun h -> h.state = `Pending);
    sim.compactions <- sim.compactions + 1
  end

let cancel h =
  match h.state with
  | `Pending ->
      h.state <- `Cancelled;
      decr h.owner.live;
      maybe_compact h.owner
  | `Fired | `Cancelled -> ()

let is_pending h = h.state = `Pending
let fire_time h = h.time

(* Pop entries until a pending one is found; cancelled entries that escaped
   compaction are dropped lazily here. *)
let rec next_live sim =
  match Pheap.pop sim.heap with
  | None -> None
  | Some (_, _, h) -> (
      match h.state with
      | `Pending -> Some h
      | `Cancelled | `Fired -> next_live sim)

let step sim =
  match next_live sim with
  | None -> false
  | Some h ->
      sim.clock <- h.time;
      h.state <- `Fired;
      decr sim.live;
      sim.fired <- sim.fired + 1;
      h.callback ();
      true

let run ?until sim =
  let continue = ref true in
  while !continue do
    (* Drop cancelled heads so the next-event time seen below is live. *)
    let rec live_head () =
      match Pheap.peek sim.heap with
      | None -> None
      | Some (_, _, h) when h.state <> `Pending ->
          ignore (Pheap.pop sim.heap);
          live_head ()
      | Some (t, _, _) -> Some t
    in
    match live_head () with
    | None -> continue := false
    | Some t -> (
        match until with
        | Some limit when t > limit ->
            sim.clock <- limit;
            continue := false
        | _ -> ignore (step sim))
  done;
  match until with
  | Some limit when sim.clock < limit -> sim.clock <- limit
  | _ -> ()

let pending_events sim = !(sim.live)
let events_processed sim = sim.fired
let events_scheduled sim = sim.seq
let compactions sim = sim.compactions
