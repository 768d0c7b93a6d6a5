(* The placement-churn hot path: core-indexed tables must reproduce the
   hash tables they replaced (visit order included), the per-event
   counter and packet primitives must not allocate, and a Table 5 Tai Chi
   cell must stay under an allocation ceiling per engine event. *)

open Taichi_engine
open Taichi_hw
open Taichi_workloads
open Taichi_metrics
open Taichi_platform

(* --- Core_table visit order ------------------------------------------------ *)

(* Apply [ops] — (core, true) = replace, (core, false) = remove — to a
   Core_table and to the stdlib table it stands in for; the snapshot lists
   must agree after every op. *)
let same_order_as_hashtbl ~cores ops =
  let tbl = Core_table.create ~cores in
  let reference : (int, int) Hashtbl.t = Hashtbl.create 16 in
  List.for_all
    (fun (i, (core, write)) ->
      if write then begin
        Core_table.replace tbl core i;
        Hashtbl.replace reference core i
      end
      else begin
        Core_table.remove tbl core;
        Hashtbl.remove reference core
      end;
      Core_table.bindings tbl
      = Hashtbl.fold (fun k v acc -> (k, v) :: acc) reference [])
    (List.mapi (fun i op -> (i, op)) ops)

let prop_placed_order =
  QCheck.Test.make ~name:"core table order == Hashtbl.fold order (12 cores)"
    ~count:300
    QCheck.(list_of_size (Gen.int_range 0 120) (pair (int_bound 11) bool))
    (same_order_as_hashtbl ~cores:12)

(* Past 32 live bindings the reference table doubles its buckets; the
   core table must follow it. Writes outnumber removes so it gets there. *)
let prop_placed_order_resized =
  QCheck.Test.make ~name:"core table order == Hashtbl.fold order (resizes)"
    ~count:100
    QCheck.(
      list_of_size (Gen.int_range 0 400)
        (pair (int_bound 99) (map (fun n -> n > 0) (int_bound 3))))
    (same_order_as_hashtbl ~cores:100)

(* --- Core_state dwell ------------------------------------------------------- *)

let all_states =
  Core_state.
    [
      Offline;
      Dp_running;
      Dp_counting;
      Dp_parked;
      Vcpu_running 0;
      Vcpu_running 3;
      Switching From_dp;
      Switching To_dp;
      Cp_dedicated;
    ]

(* The string-keyed model the dwell array replaced: a (label -> ns) table
   per core, the open span folded in on read, sorted by label. *)
let reference_dwell tbl ~state ~open_span =
  let tbl = Hashtbl.copy tbl in
  let add label d =
    if d > 0 then
      Hashtbl.replace tbl label
        ((try Hashtbl.find tbl label with Not_found -> 0) + d)
  in
  add (Core_state.state_label state) open_span;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Each step picks a target among the states legal from the current one
   (Offline always is) and advances the clock first, possibly by 0. *)
let prop_dwell_reference =
  QCheck.Test.make ~name:"core_state dwell == string-keyed reference"
    ~count:300
    QCheck.(
      list_of_size (Gen.int_range 0 80)
        (triple (int_bound 1) (int_bound 50) (int_bound 100)))
    (fun steps ->
      let now = ref 0 in
      let cs = Core_state.create ~cores:2 ~now:(fun () -> !now) () in
      let refs = Array.init 2 (fun _ -> Hashtbl.create 8) in
      let since = Array.make 2 0 in
      let agree () =
        List.for_all
          (fun core ->
            Core_state.dwell cs ~core
            = reference_dwell refs.(core)
                ~state:(Core_state.get cs ~core)
                ~open_span:(!now - since.(core)))
          [ 0; 1 ]
      in
      List.for_all
        (fun (core, advance, pick) ->
          now := !now + (if advance < 10 then 0 else advance);
          let from = Core_state.get cs ~core in
          let legal =
            List.filter (fun to_ -> Core_state.legal ~from ~to_) all_states
          in
          let to_ = List.nth legal (pick mod List.length legal) in
          let span = !now - since.(core) in
          let label = Core_state.state_label from in
          if span > 0 then
            Hashtbl.replace refs.(core) label
              ((try Hashtbl.find refs.(core) label with Not_found -> 0) + span);
          since.(core) <- !now;
          Core_state.transition cs ~core ~cause:Core_state.Hotplug to_;
          agree ())
        steps
      && (now := !now + 7;
          agree ()))

(* --- allocation-free primitives ----------------------------------------------- *)

(* The per-event primitives allocate nothing once warm: counter handle
   increments, tenant-lane increments, an arena packet alloc+free, the
   integer, boolean and Bernoulli RNG draws and a recorder observation.
   Allocation is deterministic, so [Gc.minor_words] over [contract_ops]
   calls is an exact contract; a hair above zero is tolerated for the
   probe itself.
   The two RNG draws that return a boxed value have ceilings of their
   own: a float box (2 words) and an int64 box (3 words). *)
let contract_ops = 100_000
let contract_max_words_per_op = 0.01

let minor_words_per_op f =
  let w0 = Gc.minor_words () in
  for i = 0 to contract_ops - 1 do
    f i
  done;
  (Gc.minor_words () -. w0) /. float_of_int contract_ops

let test_alloc_free_primitives () =
  let module Pk = Taichi_accel.Packet in
  let c = Counters.create () in
  let h = Counters.handle c "dp.packets_done" in
  let l = Counters.lane c "dp.packets_done" in
  (* Intern the lane rows first: the warm path is the one under contract. *)
  for t = 0 to 3 do
    Counters.lane_incr l t
  done;
  let arena = Pk.arena ~capacity:64 () in
  let rng = Rng.create ~seed:42 in
  let recorder = Recorder.create "alloc.observe" in
  (* Probe sanity: a heap descriptor must show up as allocation, or the
     zeros below would prove nothing. *)
  let create i =
    ignore
      (Sys.opaque_identity
         (Pk.create ~kind:Pk.Net_rx ~size:64 ~dst_core:0 ~tag:i))
  in
  if minor_words_per_op create <= 0.0 then
    Alcotest.fail "heap Packet.create allocated nothing: the probe is broken";
  List.iter
    (fun (name, max_words, f) ->
      let words = minor_words_per_op f in
      if words > max_words then
        Alcotest.failf "%s allocates %.4f minor words/op (max %.2f)" name
          words max_words)
    [
      ( "Counters.incr_h",
        contract_max_words_per_op,
        fun _ -> Counters.incr_h c h );
      ( "Counters.add_h",
        contract_max_words_per_op,
        fun i -> Counters.add_h c h i );
      ( "Counters.lane_incr",
        contract_max_words_per_op,
        fun i -> Counters.lane_incr l (i land 3) );
      ( "Packet.alloc+free",
        contract_max_words_per_op,
        fun i ->
          Pk.free arena
            (Pk.alloc arena ~kind:Pk.Net_rx ~size:64 ~dst_core:0 ~tag:i) );
      ( "Rng.int",
        contract_max_words_per_op,
        fun i -> ignore (Sys.opaque_identity (Rng.int rng (1 + i))) );
      ( "Rng.bool",
        contract_max_words_per_op,
        fun _ -> ignore (Sys.opaque_identity (Rng.bool rng)) );
      ( "Rng.bernoulli",
        contract_max_words_per_op,
        fun _ -> ignore (Sys.opaque_identity (Rng.bernoulli rng ~p:0.5)) );
      ( "Recorder.observe",
        contract_max_words_per_op,
        fun i -> Recorder.observe recorder (i land 4095) );
      ( "Rng.float",
        2.0,
        fun _ -> ignore (Sys.opaque_identity (Rng.float rng 1.0)) );
      ( "Rng.bits64",
        3.0,
        fun _ -> ignore (Sys.opaque_identity (Rng.bits64 rng)) );
    ]

(* --- allocation ceiling ------------------------------------------------------ *)

(* A short Table 5 Tai Chi cell: the default Tai Chi policy under the
   table's CP churn (background monitors plus a 5 ms spinlocked task
   every 1 ms), 100 pings 2 ms apart on the first networking core, seed
   42. Allocation is deterministic, so the words allocated per engine
   event (setup included) are a fixed number for this code: 28.9 over
   168,037 events (35.9 with the boxed RNG state). The ceiling catches a
   regression back towards the hashing and eager trace formatting this
   path used to do: the same cell allocated 153.5 words per event before
   the core-indexed tables. *)
let minor_words_ceiling = 60.0

let test_alloc_ceiling () =
  let words0 = Gc.minor_words () in
  let sys = System.create ~seed:42 Policy.taichi_default in
  System.warmup sys;
  let sim = System.sim sys in
  let events0 = Sim.events_processed sim in
  let count = 100 and interval = Time_ns.ms 2 in
  let dur = (count * interval) + Time_ns.ms 50 in
  let until = Sim.now sim + dur in
  Exp_common.start_bg_cp sys;
  Exp_common.start_cp_churn sys ~period:(Time_ns.ms 1) ~work:(Time_ns.ms 5)
    ~until;
  let recorder = Recorder.create "ping.rtt" in
  Ping.run (System.client sys)
    (Rng.split (System.rng sys) "ping")
    ~params:{ Ping.default_params with interval; count }
    ~core:(List.hd (System.net_cores sys))
    ~recorder;
  System.advance sys dur;
  let events = Sim.events_processed sim - events0 in
  let per_event = (Gc.minor_words () -. words0) /. float_of_int events in
  Alcotest.(check int) "every ping answered" count (Recorder.count recorder);
  Alcotest.(check (list string)) "audit clean" [] (System.audit sys);
  if per_event > minor_words_ceiling then
    Alcotest.failf "%.1f minor words per event (ceiling %.0f, %d events)"
      per_event minor_words_ceiling events

(* --- fixed footprint ------------------------------------------------------ *)

(* The fleet layer holds 8-16 whole systems at once, so what one idle
   system holds is multiplied. Every NIC-level structure is sized by its
   live contents: the calendar wheel's bucket table is 2^13 slots, the
   packet arena starts at 64 descriptors and the rings' buffers start
   empty, all growing on demand. An empty [Sim] is ~19.8 k words and a
   warmed-up system 36-60 k live words. The ceilings leave headroom for
   small additions but not for a worst-case preallocation: a 2^16-bucket
   wheel alone is 131 k words, and a 4096-slot arena takes the fleet
   system to 120 k. Live words are counted after a compaction, so only
   what the system keeps reachable counts. *)
let sim_words_ceiling = 40_000
let system_words_ceiling = 100_000

let live_words () =
  Gc.compact ();
  (Gc.stat ()).Gc.live_words

let fleet_policy =
  let open Taichi_core in
  let c = Config.no_hw_probe Config.default in
  let c = Config.with_tenants c [ Tenant.spec ~weight:2 "alpha"; Tenant.spec "bravo" ] in
  Policy.Taichi (Config.with_churn (Config.with_overload c))

let test_footprint_ceiling () =
  let words = Obj.reachable_words (Obj.repr (Sim.create ())) in
  if words > sim_words_ceiling then
    Alcotest.failf "an empty Sim holds %d words (ceiling %d)" words
      sim_words_ceiling;
  List.iter
    (fun (name, policy) ->
      let w0 = live_words () in
      let sys = System.create ~seed:42 policy in
      System.warmup sys;
      let grown = live_words () - w0 in
      ignore (Sys.opaque_identity sys);
      if grown > system_words_ceiling then
        Alcotest.failf "%s: create + warmup holds %d live words (ceiling %d)"
          name grown system_words_ceiling)
    [
      ("static_partition", Policy.Static_partition);
      ("taichi_default", Policy.taichi_default);
      ("fleet", fleet_policy);
    ]

let suite =
  [
    QCheck_alcotest.to_alcotest prop_placed_order;
    QCheck_alcotest.to_alcotest prop_placed_order_resized;
    QCheck_alcotest.to_alcotest prop_dwell_reference;
    ("allocation-free primitives: counters, lanes, arena", `Quick,
     test_alloc_free_primitives);
    ("allocation ceiling: table5 taichi cell", `Quick, test_alloc_ceiling);
    ("footprint ceiling: empty sim and idle systems", `Quick,
     test_footprint_ceiling);
  ]
