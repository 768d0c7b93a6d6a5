(* Unit tests for the overload governor: ladder escalation and relaxation
   under synthetic signals, hysteresis (minimum dwell between rungs), the
   per-class admission matrix, the placement token bucket, backpressure,
   convergence with PR 3's forced degraded mode, and determinism. *)

open Taichi_engine
open Taichi_hw
open Taichi_os
open Taichi_core

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let period = Time_ns.us 100
let min_dwell = Time_ns.us 200
let quiet = Time_ns.us 300

let test_params =
  {
    Config.period;
    min_dwell;
    quiet;
    p99_bound = Time_ns.us 100;
    busy_high = 0.9;
    busy_low = 0.2;
    runq_high = 4;
    runq_low = 1;
    tokens_per_period = 2;
    token_burst = 2;
  }

(* A 2-cpu kernel with the governor watching cpu 0's runqueue. Load is
   synthetic: pinned compute tasks make the runqueue deep, a periodic
   feed pushes the latency sketch over the p99 bound — two of the three
   over-votes, enough to escalate (no DP cores are watched, so the busy
   signal stays 0). *)
let make_governor () =
  let sim = Sim.create () in
  let machine =
    Machine.create
      ~config:{ Machine.default_config with Machine.physical_cores = 2 }
      sim
  in
  let kernel = Kernel.create machine in
  List.iter
    (fun id -> ignore (Kernel.add_physical_cpu kernel ~id ()))
    [ 0; 1 ];
  let recovery = Recovery.create Config.default machine in
  let ov = Overload.create test_params machine kernel recovery in
  Overload.watch_kcpu ov 0;
  (sim, kernel, recovery, ov)

let pinned_compute name work =
  Task.create ~affinity:[ 0 ] ~name
    ~step:(Program.to_step [ Program.compute work ])
    ()

(* Deep runqueue on cpu 0 (1 running + 4 queued) plus an over-bound
   latency feed until [feed_until]. *)
let apply_load sim kernel ov ~feed_until =
  for i = 1 to 5 do
    Kernel.spawn kernel (pinned_compute (Printf.sprintf "load-%d" i) (Time_ns.ms 1))
  done;
  let rec feed () =
    if Sim.now sim < feed_until then begin
      Overload.observe_latency ov (Time_ns.us 200);
      ignore (Sim.after sim (Time_ns.us 50) feed)
    end
  in
  feed ()

let test_ladder_escalates_and_relaxes () =
  let sim, kernel, recovery, ov = make_governor () in
  let transitions = ref [] in
  Overload.on_transition ov (fun from to_ ->
      transitions := (Sim.now sim, from, to_) :: !transitions);
  apply_load sim kernel ov ~feed_until:(Time_ns.ms 2);
  Overload.start ov;
  (* Probe the deep end of the ladder mid-storm. *)
  let probed = ref false in
  ignore
    (Sim.at sim (Time_ns.ms 1) (fun () ->
         probed := true;
         checkb "ladder at the final rung mid-storm" true
           (Overload.level ov = Overload.Static_partition);
         checkb "backpressure on at depth" true (Overload.backpressure ov);
         checkb "static rung pins degraded mode" true
           (Recovery.degraded recovery && Recovery.forced recovery)));
  Sim.run ~until:(Time_ns.ms 10) sim;
  checkb "mid-storm probe ran" true !probed;
  (* Load gone: the ladder must have relaxed rung by rung back to Normal
     and released the degraded hold. *)
  checkb "back to Normal" true (Overload.level ov = Overload.Normal);
  checkb "degraded released" false (Recovery.degraded recovery);
  checkb "hold released" false (Recovery.forced recovery);
  checki "four escalations" 4 (Overload.escalations ov);
  checki "four relaxes" 4 (Overload.relaxes ov);
  checki "transitions = escalations + relaxes" 8 (Overload.transitions ov);
  let ts = List.rev !transitions in
  (* One rung at a time, with the hysteresis dwell between transitions. *)
  List.iter
    (fun (_, from, to_) ->
      checki "single-rung move" 1 (abs (Overload.rank to_ - Overload.rank from)))
    ts;
  let rec dwells = function
    | (t1, _, _) :: ((t2, _, _) :: _ as rest) ->
        checkb "minimum dwell respected" true (t2 - t1 >= min_dwell);
        dwells rest
    | _ -> ()
  in
  dwells ts;
  (* The ladder path is exactly up the rungs and back down. *)
  let path = List.map (fun (_, _, to_) -> to_) ts in
  checkb "up then down" true
    (path
    = [
        Overload.Throttle; Overload.Defer; Overload.Shed;
        Overload.Static_partition; Overload.Shed; Overload.Defer;
        Overload.Throttle; Overload.Normal;
      ])

let test_admission_matrix () =
  let sim, kernel, _, ov = make_governor () in
  (* At Normal everything is admitted immediately. *)
  let ran = ref 0 in
  let run () = incr ran in
  checkb "critical admitted at normal" true
    (Overload.admit ov ~cls:Overload.Critical run = `Admitted);
  checkb "standard admitted at normal" true
    (Overload.admit ov ~cls:Overload.Standard run = `Admitted);
  checkb "deferrable admitted at normal" true
    (Overload.admit ov ~cls:Overload.Deferrable run = `Admitted);
  checki "all three ran" 3 !ran;
  apply_load sim kernel ov ~feed_until:(Time_ns.ms 2);
  Overload.start ov;
  let deferred_ran = ref false in
  ignore
    (Sim.at sim (Time_ns.ms 1) (fun () ->
         checkb "at the final rung" true
           (Overload.level ov = Overload.Static_partition);
         (* Critical always passes; Standard parks; Deferrable is shed —
            the only class ever dropped. *)
         let before = !ran in
         checkb "critical still admitted" true
           (Overload.admit ov ~cls:Overload.Critical run = `Admitted);
         checki "critical ran now" (before + 1) !ran;
         checkb "standard deferred" true
           (Overload.admit ov ~cls:Overload.Standard (fun () ->
                deferred_ran := true)
           = `Deferred);
         checkb "deferred not run yet" false !deferred_ran;
         checki "parked on the deferred queue" 1 (Overload.deferred_pending ov);
         checkb "deferrable shed" true
           (Overload.admit ov ~cls:Overload.Deferrable run = `Shed);
         checki "shed counted" 1 (Overload.shed ov Overload.Deferrable)));
  Sim.run ~until:(Time_ns.ms 10) sim;
  (* Relaxing drains the deferred queue: the parked Standard admission
     must have run once the ladder came back down. *)
  checkb "deferred admission drained on relax" true !deferred_ran;
  checki "deferred queue empty" 0 (Overload.deferred_pending ov);
  checki "nothing else was shed" 0 (Overload.shed ov Overload.Standard)

let test_place_gate_tokens () =
  let sim, kernel, _, ov = make_governor () in
  (* Ungated at Normal: far more calls than any token budget. *)
  let all_allowed = ref true in
  for _ = 1 to 50 do
    if not (Overload.place_allowed ov 0) then all_allowed := false
  done;
  checkb "unlimited at normal" true !all_allowed;
  let throttle_probe = ref None in
  Overload.on_transition ov (fun _ to_ ->
      if to_ = Overload.Throttle && !throttle_probe = None then begin
        (* Entering Throttle with a full bucket (burst 2): two grants,
           then denial. *)
        let a = Overload.place_allowed ov 0 in
        let b = Overload.place_allowed ov 0 in
        let c = Overload.place_allowed ov 0 in
        throttle_probe := Some (a, b, c)
      end);
  let static_probe = ref None in
  ignore
    (Sim.at sim (Time_ns.ms 1) (fun () ->
         if Overload.level ov = Overload.Static_partition then
           static_probe := Some (Overload.place_allowed ov 0)));
  apply_load sim kernel ov ~feed_until:(Time_ns.ms 2);
  Overload.start ov;
  Sim.run ~until:(Time_ns.ms 10) sim;
  (match !throttle_probe with
  | Some (a, b, c) ->
      checkb "token bucket grants to burst then denies" true
        (a && b && not c)
  | None -> Alcotest.fail "never entered Throttle");
  match !static_probe with
  | Some allowed -> checkb "no placements at static partition" false allowed
  | None -> Alcotest.fail "never probed Static_partition"

(* The whole scenario is simulated-clock arithmetic: identical runs must
   transition at identical times. *)
let test_governor_deterministic () =
  let run () =
    let sim, kernel, _, ov = make_governor () in
    let transitions = ref [] in
    Overload.on_transition ov (fun from to_ ->
        transitions :=
          (Sim.now sim, Overload.rank from, Overload.rank to_) :: !transitions);
    apply_load sim kernel ov ~feed_until:(Time_ns.ms 2);
    Overload.start ov;
    Sim.run ~until:(Time_ns.ms 10) sim;
    List.rev !transitions
  in
  checkb "bit-identical transition schedule" true (run () = run ())

let suite =
  [
    ("ladder escalates and relaxes", `Quick, test_ladder_escalates_and_relaxes);
    ("admission matrix", `Quick, test_admission_matrix);
    ("place gate token bucket", `Quick, test_place_gate_tokens);
    ("governor deterministic", `Quick, test_governor_deterministic);
  ]
