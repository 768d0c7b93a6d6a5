(* perfbench: one workload per process.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics: host time advancing
   simulated time and set-up time, both rescaled by a host-speed
   reference, and the heap high-water mark. Executions run in forked
   processes until S seconds are used; each is checked by the gate, and
   a repeat of --seed must reproduce the first exactly.

   --trace 1 measures the per-layer metrics: one full untraced execution
   for counts, simulated busy times and host time per layer; then a short
   traced execution with spans around every call into the library,
   checked against an untraced execution of the same length, plus the
   self-tests (span tree, second seed, fleet domain count).

   The last line of stdout is one JSON object: correct, attempted, failed
   and metrics. The process exits 1 when any correctness check failed. *)

open Taichi_engine
open Taichi_platform

let sprintf = Printf.sprintf

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
}

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let rec go acc = function
    | "--workload" :: v :: rest -> go { acc with workload = v } rest
    | "--seed" :: v :: rest -> go { acc with seed = int_of_string v } rest
    | "--seconds" :: v :: rest -> go { acc with seconds = float_of_string v } rest
    | "--trace" :: v :: rest -> go { acc with trace = v = "1" } rest
    | [] -> acc
    | _ -> usage ()
  in
  let defaults =
    { workload = ""; seed = 42; seconds = 10.0; trace = false }
  in
  try go defaults (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ()

let median = Workloads.median
let nproc = max 1 (min 2 (Domain.recommended_domain_count ()))

(* One execution of the workload on a fresh probe. *)
let execute ?spans ?(fleet_jobs = 1) ~tracing (w : Workloads.t) ~seed ~scale =
  let p = Probe.create ?spans ~tracing () in
  (match spans with
  | Some s -> Span.with_ s ("workload." ^ w.Workloads.name) (fun () -> w.run ~fleet_jobs p ~seed ~scale)
  | None -> w.run ~fleet_jobs p ~seed ~scale);
  p

(* Host seconds spent advancing simulated time. A fleet run advances its
   NICs inside Fleet_run.run, so the whole call counts. *)
let wall_s p = Probe.host_s p "platform.advance" +. Probe.host_s p "fleet.run"

let dp_p99_us p =
  match Hashtbl.find_opt p.Probe.outcome "dp_p99_us" with
  | Some v -> v
  | None ->
      if Histogram.count p.Probe.taichi_dp = 0 then 0.0
      else float_of_int (Histogram.percentile p.Probe.taichi_dp 99.0) /. 1e3

let failures = ref []
let check ok fmt = Printf.ksprintf (fun m -> if not ok then failures := m :: !failures) fmt

let absorb_failures p = failures := p.Probe.failures @ !failures

(* --- isolated executions ---------------------------------------------------- *)

(* Run [f] in a forked process and return its result. Each timed
   execution starts from the same small heap, so its timing and its heap
   high-water mark do not depend on what ran before it. *)
let in_child (f : unit -> 'a) : 'a =
  flush stdout;
  flush stderr;
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let oc = Unix.out_channel_of_descr wr in
      let r : ('a, string) result =
        try Ok (f ()) with e -> Error (Printexc.to_string e)
      in
      Marshal.to_channel oc r [];
      close_out oc;
      Unix._exit 0
  | pid -> (
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let r : ('a, string) result =
        try Marshal.from_channel ic with End_of_file -> Error "execution process died"
      in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      match r with Ok v -> v | Error e -> failwith e)

let heap_mb () =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

type sample = {
  events : float;
  wall : float;
  heap : float;  (** MB, high-water mark of the execution's process *)
  attempted : int;
  completed : int;
  failed : string list;
  fp : string;
  outcome : (string, float) Hashtbl.t;
}

let sample (w : Workloads.t) ~seed ~scale =
  in_child (fun () ->
      let p = execute ~tracing:false w ~seed ~scale in
      {
        events = Probe.get p.Probe.layer "engine.events";
        wall = wall_s p;
        heap = heap_mb ();
        attempted = p.Probe.attempted;
        completed = p.Probe.completed;
        failed = p.Probe.failures;
        fp = Probe.fingerprint p;
        outcome = p.Probe.outcome;
      })

(* Create and warm up the workload's systems [rounds] times, dropping
   each system right after; per round, the host seconds spent in
   [System.create] and in [System.warmup]. *)
let setup_rounds (w : Workloads.t) ~seed ~rounds =
  in_child (fun () ->
      List.init rounds (fun _ ->
          List.fold_left
            (fun (c, wu) policy ->
              let t0 = Unix.gettimeofday () in
              let sys = System.create ~seed policy in
              let t1 = Unix.gettimeofday () in
              System.warmup sys;
              (c +. (t1 -. t0), wu +. (Unix.gettimeofday () -. t1)))
            (0.0, 0.0) w.Workloads.setup))

(* --- output ---------------------------------------------------------------- *)

let print_outcomes tbl =
  List.iter
    (fun (k, v) -> Printf.printf "  %-36s %16.6f (simulated)\n" k v)
    (List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []))

let metric name unit v = (name, v, unit)

let report ~attempted ~completed metrics =
  List.iter
    (fun (name, v, unit) -> Printf.printf "  %-36s %16.6f %s\n" name v unit)
    metrics;
  List.iter (fun m -> Printf.printf "  FAILED: %s\n" m) (List.rev !failures);
  let correct = !failures = [] in
  let open Taichi_metrics.Json in
  let json =
    Obj
      [
        ("correct", Bool correct);
        ("attempted", Int (max 1 attempted));
        ("failed", Int (max 0 (max 1 attempted - completed)));
        ( "metrics",
          Obj
            (List.map
               (fun (name, v, unit) ->
                 (name, Obj [ ("value", Str (sprintf "%.17g" v)); ("unit", Str unit) ]))
               metrics) );
      ]
  in
  (* Values travel as exact decimal strings; the wrapper turns them into
     JSON numbers. *)
  print_endline (to_string json);
  if not correct then exit 1

(* --- untraced run: end-to-end metrics -------------------------------------- *)

(* The shared host's speed swings by up to 1.7x between phases a few
   seconds long, so medians of raw host times from runs minutes apart
   spread by 10-25%. A reference round of fixed work ([Calib]) is timed
   between executions throughout the run, and host times are reported
   rescaled to a host that does the round in [Calib.nominal_s]: median
   host time times [Calib.nominal_s] over the median reference round.
   The raw seconds are printed in the report. *)
let end_to_end (w : Workloads.t) a =
  let scale = w.Workloads.time_scale in
  let t0 = Unix.gettimeofday () in
  let setups = ref [] and refs = ref [] and samples = ref [] in
  (* Between executions: set-up rounds, then reference rounds. *)
  let gap () =
    setups := List.map (fun (c, wu) -> c +. wu) (setup_rounds w ~seed:a.seed ~rounds:3) @ !setups;
    refs := List.init 7 (fun _ -> Calib.run ()) @ !refs
  in
  let take seed =
    let s = sample w ~seed ~scale in
    gap ();
    failures := s.failed @ !failures;
    samples := s :: !samples;
    Printf.printf "  seed %-8d wall %.4f s\n" seed s.wall;
    s
  in
  Printf.printf "%s seed=%d scale=%g\n" w.name a.seed scale;
  ignore (Calib.run ());
  gap ();
  let first = take a.seed in
  let per_exec = Unix.gettimeofday () -. t0 in
  (* Further executions while they fit in the time budget, each on its
     own seed derived from --seed so the median spans several inputs;
     the last one repeats --seed and must reproduce the first exactly. *)
  let i = ref 1 in
  while Unix.gettimeofday () -. t0 +. (2.0 *. per_exec) <= a.seconds do
    ignore (take (a.seed + (7919 * !i)));
    incr i
  done;
  let again = take a.seed in
  check (again.fp = first.fp) "repeat execution of seed %d diverged from the first" a.seed;
  let samples = List.rev !samples in
  let wall = median (List.map (fun s -> s.wall) samples) and setup = median !setups in
  let ref_s = median !refs in
  let rescale x = x *. Calib.nominal_s /. ref_s in
  Printf.printf "  raw medians: wall %.4f s, set-up %.5f s, reference round %.5f s (%d executions)\n"
    wall setup ref_s (List.length samples);
  print_outcomes first.outcome;
  report
    ~attempted:(List.fold_left (fun acc s -> acc + s.attempted) 0 samples)
    ~completed:(List.fold_left (fun acc s -> acc + s.completed) 0 samples)
    [
      metric "wall_s" "s" (rescale wall);
      metric "setup_s" "s" (rescale setup);
      metric "peak_heap_mb" "MB" (median (List.map (fun s -> s.heap) samples));
    ]

(* --- traced run: per-layer metrics ----------------------------------------- *)

let layer_names =
  [
    ("hw.core_state_transitions", "count"); ("hw.audit_violations", "count");
    ("hw.ipis_sent", "count"); ("os.context_switches", "count");
    ("os.steals", "count"); ("os.spin_s", "s"); ("os.irq_s", "s");
    ("virt.vm_exits", "count"); ("virt.switch_s", "s");
    ("core.placements", "count"); ("core.halt_exits", "count");
    ("core.probe_evictions", "count"); ("core.lock_rescues", "count");
    ("core.borrows", "count"); ("core.hw_probe_triggers", "count");
    ("core.hw_probe_suppressed", "count"); ("core.ipi_routed", "count");
    ("core.ipi_posted", "count"); ("core.overload_transitions", "count");
    ("core.overload_shed", "count"); ("accel.submitted", "count");
    ("accel.delivered", "count"); ("accel.ring_drops", "count");
    ("accel.state_table_updates", "count"); ("dataplane.packets", "count");
    ("dataplane.work_s", "s"); ("dataplane.poll_s", "s");
    ("dataplane.parked_s", "s"); ("dataplane.spikes", "count");
    ("dataplane.latency_samples", "count"); ("controlplane.cp_work_s", "s");
    ("controlplane.vms_started", "count");
    ("fleet.exch_sent", "count"); ("fleet.exch_lost", "count");
    ("fleet.rpc_sent", "count"); ("fleet.rpc_retries", "count");
    ("fleet.rpc_timeouts", "count"); ("fleet.replaced", "count");
    ("fleet.refused", "count"); ("fleet.forced_drains", "count");
    ("faults.crashes", "count");
  ]

let outcome_names =
  [
    ("rtt_p50_us", "us"); ("rtt_p99_us", "us"); ("rtt_samples", "count");
    ("dp_overhead_pct", "%"); ("vm_startup_ms", "ms");
    ("slo_attainment", "ratio"); ("paper_err_pct", "%");
  ]

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Span trees of traced runs, relative to the checkout root. *)
let spans_dir = ".perfbench"

let per_layer (w : Workloads.t) a =
  let get = Probe.get in
  (* Set-up alone, split into its two calls; the fleet makes them inside
     Fleet_run.run, out of the benchmark's sight. *)
  let setup = setup_rounds w ~seed:a.seed ~rounds:5 in
  (* Full-length untraced execution: counts, simulated busy times, host
     time per layer and allocation. *)
  Gc.compact ();
  let gc0 = Gc.quick_stat () in
  let full = execute ~tracing:false w ~seed:a.seed ~scale:1.0 in
  let gc1 = Gc.quick_stat () in
  absorb_failures full;
  let l = full.Probe.layer in
  let events = get l "engine.events" in
  let wall = wall_s full in
  (* Short traced execution, with spans, against an untraced one of the
     same length: simulated outputs must match exactly. *)
  let scale = w.Workloads.trace_scale in
  let wid = sprintf "%s-seed%d" w.name a.seed in
  let spans = Span.create ~wid in
  let short = execute ~tracing:false w ~seed:a.seed ~scale in
  let traced = execute ~spans ~tracing:true w ~seed:a.seed ~scale in
  absorb_failures short;
  absorb_failures traced;
  let fp = Probe.fingerprint short in
  check (Probe.fingerprint traced = fp) "traced execution's simulated outputs differ from untraced";
  (* The fleet's traced NIC runs are harvested into the run context;
     validate them as one export. *)
  (match Run_ctx.runs traced.Probe.ctx with
  | [] -> ()
  | runs ->
      Probe.timed traced "metrics.export" (fun () ->
          List.iter
            (fun r ->
              traced.Probe.trace_records <- traced.Probe.trace_records + List.length r.Taichi_metrics.Export.events)
            runs;
          let s = Taichi_metrics.Export.to_string runs in
          traced.Probe.export_bytes <- traced.Probe.export_bytes + String.length s;
          match Taichi_metrics.Export.validate_string s with
          | Ok () -> ()
          | Error e -> check false "fleet trace export invalid: %s" e));
  check (traced.Probe.export_bytes > 0) "traced execution exported nothing";
  List.iter (fun e -> check false "span tree: %s" e) (Span.check spans);
  (* Self-tests: a second seed passes the same gate with different
     simulated outputs; the fleet is identical at 1 and nproc domains. *)
  let other = execute ~tracing:false w ~seed:(a.seed + 1) ~scale in
  absorb_failures other;
  check (Probe.fingerprint other <> fp) "seed %d reproduced seed %d's outputs" (a.seed + 1) a.seed;
  if w.name = "fleet_failover" then begin
    let par = execute ~fleet_jobs:nproc ~tracing:false w ~seed:a.seed ~scale in
    absorb_failures par;
    check (Probe.fingerprint par = fp) "fleet outputs differ between 1 and %d domains" nproc
  end;
  (try
     if not (Sys.file_exists spans_dir) then Sys.mkdir spans_dir 0o755;
     let path = Filename.concat spans_dir (sprintf "spans-%s.json" wid) in
     let oc = open_out path in
     output_string oc (Taichi_metrics.Json.to_string (Span.to_json spans));
     output_char oc '\n';
     close_out oc
   with Sys_error e -> check false "writing spans: %s" e);
  Printf.printf "%s seed=%d traced scale=%g\n  self time per span (traced run):\n" w.name a.seed scale;
  List.iter (fun (n, v) -> Printf.printf "    %-28s %12.6f s\n" n v) (Span.self_times spans);
  Printf.printf "  full-length execution:\n";
  print_outcomes full.Probe.outcome;
  let ops = float_of_int full.Probe.completed in
  let outcome k = Option.value (Hashtbl.find_opt full.Probe.outcome k) ~default:0.0 in
  let work = get l "dataplane.work_s" and poll = get l "dataplane.poll_s" in
  let fleet_sent = get l "fleet.rpc_sent" in
  report ~attempted:full.Probe.attempted ~completed:full.Probe.completed
    ([
       metric "engine.events" "count" events;
       metric "engine.fired_ratio" "ratio" (ratio events (get l "engine.scheduled"));
       metric "engine.ns_per_event" "ns" (ratio (wall *. 1e9) events);
       metric "engine.minor_words_per_event" "words"
         (ratio (gc1.Gc.minor_words -. gc0.Gc.minor_words) events);
       metric "engine.major_words" "words" (gc1.Gc.major_words -. gc0.Gc.major_words);
       metric "platform.create_s" "s" (median (List.map fst setup));
       metric "platform.warmup_s" "s" (median (List.map snd setup));
       metric "platform.advance_s" "s" wall;
       metric "hw.audit_s" "s" (Probe.host_s full "hw.audit");
       metric "core.sw_probe_false_positive_ratio" "ratio"
         (ratio (get l "core.sw_probe_false_positives") (get l "core.placements"));
       metric "dataplane.useful_ratio" "ratio" (ratio work (work +. poll));
       metric "workloads.ops_attempted" "count" (float_of_int full.Probe.attempted);
       metric "workloads.ops_completed" "count" ops;
       metric "workloads.host_us_per_op" "us" (ratio (wall *. 1e6) ops);
       metric "metrics.trace_overhead" "ratio" (ratio (wall_s traced) (wall_s short));
       metric "metrics.trace_records" "count" (float_of_int traced.Probe.trace_records);
       metric "metrics.trace_dropped" "count" (float_of_int traced.Probe.trace_dropped);
       metric "metrics.export_s" "s" (Probe.host_s traced "metrics.export");
       metric "metrics.export_bytes" "bytes" (float_of_int traced.Probe.export_bytes);
       metric "dp_p99_us" "us" (dp_p99_us full);
       metric "fleet.rpc_completion_ratio" "ratio" (ratio (get l "fleet.rpc_completed") fleet_sent);
       metric "fail_ratio" "ratio"
         (ratio (float_of_int (full.Probe.attempted - full.Probe.completed)) (float_of_int full.Probe.attempted));
     ]
    @ List.map (fun (n, u) -> metric n u (get l n)) layer_names
    @ List.map (fun (n, u) -> metric n u (outcome n)) outcome_names)

let () =
  let a = parse_args () in
  match Workloads.find a.workload with
  | None ->
      prerr_endline ("perfbench: unknown workload " ^ a.workload);
      exit 2
  | Some w -> if a.trace then per_layer w a else end_to_end w a
