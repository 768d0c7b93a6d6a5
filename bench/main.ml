(* The engine bench: the calendar-queue engine against the seed
   binary-heap engine on a fig17-shaped timer replay, the same kind of
   replay with per-event bookkeeping in the seed's string-keyed idiom and
   in the current handle-based one, and a table of per-op microbenches of
   the primitives the experiments stand on. Each timed section checks its
   floor in-process, next to the code that measures it; the bench exits 1
   if any floor is missed (after writing the report, so a failing run
   still leaves its numbers behind).

   The paper's experiments are not run here: `taichi_sim` reproduces
   them, `make golden` pins their output, and perfbench/ measures them
   end to end.

   Environment:
     BENCH_SEED         root seed (default 42)
     BENCH_ENGINE_JSON  write the report (schema taichi-bench-engine-v3)
                        to this path
*)

open Taichi_engine

(* A malformed seed falls back to the default, but loudly: silently
   benchmarking the wrong configuration is worse than failing to parse. *)
let seed =
  match Sys.getenv_opt "BENCH_SEED" with
  | None -> 42
  | Some s -> (
      match int_of_string_opt s with
      | Some v -> v
      | None ->
          Printf.eprintf
            "bench: ignoring malformed BENCH_SEED=%S (expected an int); using \
             42\n\
             %!"
            s;
          42)

(* --- floors ----------------------------------------------------------------- *)

let missed = ref []

let check_floor name ~min measured =
  let ok = measured >= min in
  Printf.printf "  floor %s: %.2f (min %.2f)%s\n" name measured min
    (if ok then "" else "  ** MISSED **");
  if not ok then
    missed := Printf.sprintf "%s %.2f < %.2f" name measured min :: !missed

let rate events wall = float_of_int events /. Float.max 1e-9 wall
let ratio slow fast = slow /. Float.max 1e-9 fast

let section title =
  print_newline ();
  print_endline title;
  print_endline (String.make (String.length title) '=')

(* --- engine hot path: calendar queue vs seed heap ----------------------------- *)

(* The subset of the simulator API the replay needs; both the production
   engine (calendar queue + handle pool) and the seed engine (binary heap,
   [Sim_legacy]) satisfy it, so the same program measures both in one
   binary. *)
module type ENGINE = sig
  type t
  type handle

  val create : unit -> t
  val after : t -> Time_ns.t -> (unit -> unit) -> handle
  val cancel : t -> handle -> unit
  val run : ?until:Time_ns.t -> t -> unit
  val events_scheduled : t -> int
  val events_processed : t -> int
end

(* Adapt the seed engine's owner-carrying handle record to the shared
   ENGINE surface, where cancel is owner-relative. *)
module Legacy_engine = struct
  include Taichi_oracle.Sim_legacy

  let cancel _sim h = Taichi_oracle.Sim_legacy.cancel h
end

(* An event program shaped like the fig17 hot path (VM startup storm over
   a loaded NIC): a few hundred concurrent actors each re-arming
   themselves at microsecond horizons; every activation arms a slice
   timer and a device timeout, ~94% of which are cancelled before they
   fire (the scheduler re-arms before the slice expires); and a standing
   population of far-future watchdogs that never fire but keep the queue
   deep. One raw RNG word per activation, bit-sliced, keeps harness
   overhead out of the engine comparison. Fully deterministic given the
   seed: both engines draw the same RNG stream in the same fire order, so
   their scheduled/processed counters must come out identical. *)
let hotpath_chains = 256
let hotpath_standing = 65536
let hotpath_horizon = Time_ns.ms 20

(* An absolute rate set well below a cold shared CI runner (this replay
   measured 1.76M events/sec when the handle-based hot path landed), and a
   ratio, which is host-independent (measured 3.7x then). *)
let hotpath_events_per_sec_min = 200_000.0
let hotpath_speedup_min = 1.5

let hotpath_replay (module E : ENGINE) =
  let sim = E.create () in
  let rng = Rng.create ~seed in
  for _ = 1 to hotpath_standing do
    ignore
      (E.after sim (Time_ns.sec 120 + Rng.int rng (Time_ns.sec 120)) (fun () -> ()))
  done;
  let nop () = () in
  let rec worker () =
    let bits = Int64.to_int (Int64.shift_right_logical (Rng.bits64 rng) 2) in
    let slice = E.after sim (Time_ns.us 50 + (bits land 0xFFFF)) nop in
    let timeout =
      E.after sim (Time_ns.us 200 + ((bits lsr 16) land 0x3FFFF)) nop
    in
    if (bits lsr 34) land 15 <> 0 then E.cancel sim slice;
    if (bits lsr 38) land 15 <> 0 then E.cancel sim timeout;
    ignore (E.after sim (Time_ns.ns 800 + ((bits lsr 42) land 0xFFF)) worker)
  in
  for _ = 1 to hotpath_chains do
    ignore (E.after sim (Rng.int rng (Time_ns.us 4)) worker)
  done;
  let t0 = Unix.gettimeofday () in
  E.run ~until:hotpath_horizon sim;
  let wall = Unix.gettimeofday () -. t0 in
  (E.events_scheduled sim, E.events_processed sim, wall)

let report_hotpath () =
  section "Engine hot path: calendar queue vs seed binary heap";
  Printf.printf
    "  fig17-shaped replay: %d chains, %d standing timers, ~94%% timer \
     cancellation, %s horizon\n"
    hotpath_chains hotpath_standing
    (Time_ns.to_string hotpath_horizon);
  (* Legacy first so the production engine cannot inherit a warmer cache. *)
  let lsched, lproc, lwall = hotpath_replay (module Legacy_engine) in
  let csched, cproc, cwall = hotpath_replay (module Sim) in
  if (csched, cproc) <> (lsched, lproc) then
    failwith
      (Printf.sprintf
         "engine hot path: calendar %d/%d vs legacy %d/%d events — the two \
          engines diverged"
         csched cproc lsched lproc);
  Printf.printf "  %-13s %9d scheduled %9d fired  %8.3fs wall  %12.0f events/sec\n"
    "legacy-heap" lsched lproc lwall (rate lproc lwall);
  Printf.printf "  %-13s %9d scheduled %9d fired  %8.3fs wall  %12.0f events/sec\n"
    "calendar" csched cproc cwall (rate cproc cwall);
  let speedup = ratio lwall cwall in
  check_floor "hotpath_events_per_sec" ~min:hotpath_events_per_sec_min
    (rate cproc cwall);
  check_floor "hotpath_speedup" ~min:hotpath_speedup_min speedup;
  let module J = Taichi_metrics.Json in
  let engine wall =
    J.Obj
      [ ("wall_s", J.Float wall); ("events_per_sec", J.Float (rate cproc wall)) ]
  in
  J.Obj
    [
      ("chains", J.Int hotpath_chains);
      ("standing", J.Int hotpath_standing);
      ("horizon_ns", J.Int hotpath_horizon);
      ("events_scheduled", J.Int csched);
      ("events_processed", J.Int cproc);
      ("calendar", engine cwall);
      ("legacy", engine lwall);
      ("speedup", J.Float speedup);
    ]

(* --- full-work hot path: seed-style vs handle-based bookkeeping --------------- *)

(* The per-event work the experiments layer on top of the engine, in the
   two idioms this repo has used: the seed's (string-keyed counter
   increments, a heap-allocated packet record per descriptor, one RNG
   draw per activation, a per-packet [sprintf] tenant mirror) and the
   current one (interned counter handles, arena-recycled descriptors,
   per-batch variates pre-drawn with [Rng.fill_array], a dense per-tenant
   counter lane). Both styles execute the identical event program on the
   production engine — the delays derive from the same RNG stream — so
   event counts, packet counts and the final counter dump must match
   exactly. Only the bookkeeping idiom differs, which makes the wall-clock
   ratio a direct measurement of what the handle-based hot path bought. *)
let fullwork_chains = 192
let fullwork_burst = 8
let fullwork_horizon = Time_ns.ms 10
let fullwork_batch = 64

(* Measured 5.8x when the handle-based hot path landed. *)
let hotpath_full_speedup_min = 2.0

type fullwork_style = Oldstyle | Newstyle

let fullwork_replay style =
  let module Pk = Taichi_accel.Packet in
  let sim = Sim.create () in
  let ctr = Counters.create () in
  let rng = Rng.create ~seed in
  let arena = Pk.arena ~capacity:64 () in
  let h_burst = Counters.handle ctr "dp.rx_burst" in
  let h_done = Counters.handle ctr "dp.packets_done" in
  let h_bytes = Counters.handle ctr "dp.bytes" in
  let l_done = Counters.lane ctr "dp.packets_done" in
  let variates = Array.make fullwork_batch 0L in
  let cursor = ref fullwork_batch in
  let packets = ref 0 in
  let next_variate () =
    match style with
    | Oldstyle -> Rng.bits64 rng
    | Newstyle ->
        if !cursor = fullwork_batch then begin
          Rng.fill_array rng variates;
          cursor := 0
        end;
        let v = variates.(!cursor) in
        incr cursor;
        v
  in
  let rec worker () =
    let v = Int64.to_int (Int64.shift_right_logical (next_variate ()) 2) in
    (match style with
    | Oldstyle ->
        Counters.incr ctr "dp.rx_burst";
        for k = 0 to fullwork_burst - 1 do
          let size = 64 + ((v lsr (4 * k)) land 0x3FF) in
          let pkt =
            Pk.create ~kind:Pk.Net_rx ~size ~dst_core:(k land 3) ~tag:!packets
          in
          Counters.incr ctr "dp.packets_done";
          Counters.incr ctr ~by:pkt.Pk.size "dp.bytes";
          Counters.incr ctr
            (Printf.sprintf "tenant.%d.%s" (k land 1) "dp.packets_done");
          ignore (Sys.opaque_identity pkt);
          incr packets
        done
    | Newstyle ->
        Counters.incr_h ctr h_burst;
        for k = 0 to fullwork_burst - 1 do
          let size = 64 + ((v lsr (4 * k)) land 0x3FF) in
          let pkt =
            Pk.alloc arena ~kind:Pk.Net_rx ~size ~dst_core:(k land 3)
              ~tag:!packets
          in
          Counters.incr_h ctr h_done;
          Counters.add_h ctr h_bytes pkt.Pk.size;
          Counters.lane_incr l_done (k land 1);
          Pk.free arena pkt;
          incr packets
        done);
    ignore (Sim.after sim (Time_ns.ns 700 + ((v lsr 40) land 0x7FF)) worker)
  in
  (* Deterministic stagger; no draw, so both styles' streams stay aligned
     from the first activation. *)
  for i = 1 to fullwork_chains do
    ignore (Sim.after sim (i * 17) worker)
  done;
  let t0 = Unix.gettimeofday () in
  Sim.run ~until:fullwork_horizon sim;
  let wall = Unix.gettimeofday () -. t0 in
  ( (Sim.events_scheduled sim, Sim.events_processed sim, !packets),
    Counters.dump ctr,
    wall )

let report_fullwork () =
  section "Full-work hot path: seed-style vs handle-based bookkeeping";
  Printf.printf
    "  fig17-shaped replay with per-event work: %d chains, burst %d, %s \
     horizon\n"
    fullwork_chains fullwork_burst
    (Time_ns.to_string fullwork_horizon);
  (* Old style first so the new path cannot inherit a warmer cache. *)
  let ((osched, oproc, opkts) as ocounts), odump, owall =
    fullwork_replay Oldstyle
  in
  let ((nsched, nproc, npkts) as ncounts), ndump, nwall =
    fullwork_replay Newstyle
  in
  if ocounts <> ncounts then
    failwith
      (Printf.sprintf
         "full-work hot path: old %d/%d/%d vs new %d/%d/%d — the two styles \
          diverged"
         osched oproc opkts nsched nproc npkts);
  if odump <> ndump then
    failwith
      "full-work hot path: counter dumps diverged between string and handle \
       bookkeeping";
  Printf.printf
    "  %-13s %9d fired %9d packets  %8.3fs wall  %12.0f events/sec\n"
    "string+heap" oproc opkts owall (rate oproc owall);
  Printf.printf
    "  %-13s %9d fired %9d packets  %8.3fs wall  %12.0f events/sec\n"
    "handle+arena" nproc npkts nwall (rate nproc nwall);
  let speedup = ratio owall nwall in
  check_floor "hotpath_full_speedup" ~min:hotpath_full_speedup_min speedup;
  let module J = Taichi_metrics.Json in
  let style wall =
    J.Obj
      [ ("wall_s", J.Float wall); ("events_per_sec", J.Float (rate oproc wall)) ]
  in
  J.Obj
    [
      ("chains", J.Int fullwork_chains);
      ("burst", J.Int fullwork_burst);
      ("horizon_ns", J.Int fullwork_horizon);
      ("events_scheduled", J.Int osched);
      ("events_processed", J.Int oproc);
      ("packets", J.Int opkts);
      ("oldstyle", style owall);
      ("newstyle", style nwall);
      ("speedup", J.Float speedup);
    ]

(* --- per-op microbenches ------------------------------------------------------ *)

(* Hand-timed loops: every row reports ns/op (varies run to run) and
   minor words/op (deterministic). The allocation-free contracts of the
   handle, lane and arena paths are tier-1 tests (test/test_hotpath.ml);
   here they are only reported. *)
let time_loop n f =
  let t0 = Unix.gettimeofday () in
  for i = 0 to n - 1 do
    f i
  done;
  (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int n

let minor_words_loop n f =
  let w0 = Gc.minor_words () in
  for i = 0 to n - 1 do
    f i
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

type row = { op : string; ops : int; ns : float; words : float }

let measure (op, ops, f) =
  let ns = time_loop ops f in
  let words = minor_words_loop ops f in
  Printf.printf "  %-24s %10.1f ns/op  %8.3f minor words/op\n" op ns words;
  { op; ops; ns; words }

(* Measured 7.1x when the handle-based hot path landed. *)
let counters_speedup_min = 2.5

let counter_ops () =
  let c = Counters.create () in
  let h = Counters.handle c "dp.packets_done" in
  let l = Counters.lane c "dp.packets_done" in
  (* Touch the lane rows once so the warm (post-intern) path is what is
     measured, as on a steady-state service. *)
  for t = 0 to 3 do
    Counters.lane_incr l t
  done;
  let n = 2_000_000 in
  [
    ("counters string incr", n, fun _ -> Counters.incr c "dp.packets_done");
    ("counters incr_h", n, fun _ -> Counters.incr_h c h);
    ("counters lane_incr", n, fun i -> Counters.lane_incr l (i land 3));
  ]

let arena_ops () =
  let module Pk = Taichi_accel.Packet in
  let arena = Pk.arena ~capacity:64 () in
  let n = 1_000_000 in
  [
    ( "packet heap create",
      n,
      fun i ->
        ignore
          (Sys.opaque_identity
             (Pk.create ~kind:Pk.Net_rx ~size:64 ~dst_core:0 ~tag:i)) );
    ( "packet arena alloc+free",
      n,
      fun i ->
        Pk.free arena (Pk.alloc arena ~kind:Pk.Net_rx ~size:64 ~dst_core:0 ~tag:i)
    );
  ]

let primitive_ops () =
  let n = 1_000_000 in
  let heap = Pheap.create () in
  let sim = Sim.create () in
  let nop () = () in
  let rng = Rng.create ~seed:1 in
  let hist = Histogram.create () in
  let hist_rng = Rng.create ~seed:2 in
  let dist_rng = Rng.create ~seed:3 in
  (* The overload governor observes every DP packet and reads a quantile
     every sampling period (~1 read per ~3000 observes at default rates);
     the sketch has to keep up with the packet path. *)
  let q = Taichi_metrics.Quantile.create ~slices:8 ~slice:200_000 () in
  let q_rng = Rng.create ~seed:4 in
  let now = ref 0 in
  [
    ( "pheap push/pop",
      n,
      fun i ->
        Pheap.push heap ~key:(i * 7919 mod 1024) ~seq:i ();
        if Pheap.length heap > 512 then ignore (Pheap.pop heap) );
    ( "sim schedule+step",
      n,
      fun _ ->
        ignore (Sim.after sim 10 nop);
        ignore (Sim.step sim) );
    ("rng bits64", n, fun _ -> ignore (Rng.bits64 rng));
    ("histogram add", n, fun _ -> Histogram.add hist (Rng.int hist_rng 10_000_000));
    ( "dist exponential",
      n,
      fun _ -> ignore (Dist.exponential dist_rng ~mean:100.0) );
    ( "quantile observe",
      n,
      fun _ ->
        now := !now + 70;
        Taichi_metrics.Quantile.observe q ~now:!now (Rng.int q_rng 1_000_000);
        if !now mod 210_000 = 0 then
          ignore (Taichi_metrics.Quantile.quantile q ~now:!now 99.0) );
  ]

let report_microbench () =
  section "Per-op microbenchmarks";
  let rows = List.map measure (counter_ops () @ arena_ops () @ primitive_ops ()) in
  let ns op = (List.find (fun r -> r.op = op) rows).ns in
  check_floor "counters_speedup" ~min:counters_speedup_min
    (ratio (ns "counters string incr") (ns "counters incr_h"));
  let module J = Taichi_metrics.Json in
  J.Arr
    (List.map
       (fun r ->
         J.Obj
           [
             ("op", J.Str r.op);
             ("ops", J.Int r.ops);
             ("ns_per_op", J.Float r.ns);
             ("minor_words_per_op", J.Float r.words);
           ])
       rows)

(* --- report ------------------------------------------------------------------- *)

(* Schema taichi-bench-engine-v3. Event and packet counts and the
   minor-words figures are deterministic for a given seed; fields named
   [wall_s], [events_per_sec], [ns_per_op] and [speedup] are timings and
   vary run to run. *)
let write_report path ~hotpath ~hotpath_full ~microbench =
  let module J = Taichi_metrics.Json in
  let json =
    J.Obj
      [
        ("schema", J.Str "taichi-bench-engine-v3");
        ("seed", J.Int seed);
        ("hotpath", hotpath);
        ("hotpath_full", hotpath_full);
        ("microbench", microbench);
      ]
  in
  let oc = open_out path in
  J.to_channel oc json;
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nengine bench: wrote %s\n" path

let () =
  Printf.printf "Tai Chi engine bench (seed %d)\n" seed;
  let hotpath = report_hotpath () in
  let hotpath_full = report_fullwork () in
  let microbench = report_microbench () in
  Option.iter
    (fun path -> write_report path ~hotpath ~hotpath_full ~microbench)
    (Sys.getenv_opt "BENCH_ENGINE_JSON");
  match List.rev !missed with
  | [] -> print_endline "engine bench: all floors met"
  | missed ->
      List.iter (Printf.eprintf "engine bench: floor missed: %s\n") missed;
      exit 1
