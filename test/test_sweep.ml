(* The sweep determinism contract and the global-state audit behind it.

   The tentpole claim under test: running an experiment's cell grid on N
   domains produces byte-identical output (tables, progress lines) and
   byte-identical taichi-trace-v1 JSON to the sequential run at the same
   seed. That only holds if no module-level mutable state leaks between
   concurrently-running systems, so the isolation test drives two full
   systems from two domains at once and demands the exact counters a
   sequential run produces. *)

open Taichi_engine
open Taichi_hw
open Taichi_platform

(* Run a whole sweep under a buffered context: returns (output bytes,
   export JSON bytes, failure, engine events) with nothing written to the
   real stdout.
   A cross-cell oracle tripping at an off-default seed is part of the
   contract too — the sweep must re-raise the exact same failure at any
   job count, after the same output and harvest. *)
let run_buffered name ~seed ~jobs ~scale =
  let desc =
    match Experiments.find name with
    | Some d -> d
    | None -> Alcotest.failf "unknown experiment %s" name
  in
  let ctx =
    Run_ctx.for_cell
      (Run_ctx.with_experiment (Run_ctx.create ~tracing:true ()) name)
  in
  let failure =
    try
      Sweep.run ~jobs ctx desc ~seed ~scale;
      None
    with e -> Some (Printexc.to_string e)
  in
  ( Run_ctx.buffered_contents ctx,
    Taichi_metrics.Export.to_string (Run_ctx.runs ctx),
    failure,
    Run_ctx.engine_events ctx )

let check_equivalence name ~scale () =
  List.iter
    (fun seed ->
      let out1, json1, fail1, (scheduled, processed) =
        run_buffered name ~seed ~jobs:1 ~scale
      in
      let out4, json4, fail4, _ = run_buffered name ~seed ~jobs:4 ~scale in
      Alcotest.(check bool)
        (Printf.sprintf "%s seed %d: 0 < events fired <= scheduled" name seed)
        true
        (processed > 0 && processed <= scheduled);
      Alcotest.(check string)
        (Printf.sprintf "%s seed %d: stdout jobs=1 vs jobs=4" name seed)
        out1 out4;
      Alcotest.(check string)
        (Printf.sprintf "%s seed %d: export JSON jobs=1 vs jobs=4" name seed)
        json1 json4;
      Alcotest.(check (option string))
        (Printf.sprintf "%s seed %d: failure jobs=1 vs jobs=4" name seed)
        fail1 fail4;
      (match Taichi_metrics.Export.validate_string json4 with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s seed %d: invalid export: %s" name seed e);
      Alcotest.(check bool)
        (Printf.sprintf "%s seed %d: output not empty" name seed)
        true
        (String.length out1 > 0))
    [ 3; 19 ]

(* --- two full systems on two domains at once ------------------------------ *)

(* One self-contained universe: mixed DP/CP load on full Tai Chi, audited
   by with_system, measured by the machine counter registry. *)
let universe seed =
  Exp_common.with_system ~seed Policy.taichi_default (fun sys ->
      let sim = System.sim sys in
      let until = Sim.now sim + Time_ns.ms 40 in
      Exp_common.start_bg_dp sys ~target:0.2 ~until;
      Exp_common.start_bg_cp sys;
      Exp_common.start_cp_churn sys ~period:(Time_ns.us 500)
        ~work:(Time_ns.us 200) ~until;
      System.advance sys (Time_ns.ms 50);
      List.sort compare
        (Counters.dump (Machine.counters (System.machine sys))))

let two_systems_concurrently () =
  let seq_a = universe 5 and seq_b = universe 6 in
  let da = Domain.spawn (fun () -> universe 5) in
  let db = Domain.spawn (fun () -> universe 6) in
  let par_a = Domain.join da and par_b = Domain.join db in
  let pp = Alcotest.(list (pair string int)) in
  Alcotest.check pp "seed 5: concurrent counters == sequential" seq_a par_a;
  Alcotest.check pp "seed 6: concurrent counters == sequential" seq_b par_b

(* --- qcheck: cell-order shuffling never changes merged output ------------- *)

(* A synthetic grid whose cells are silent and whose summarize renders in
   sorted key order: the merged output must then be a pure function of
   the cell set, whatever order the descriptor declares them in and
   however many domains run them. *)
let synth_cells = List.init 9 (fun i -> Printf.sprintf "cell-%d" i)

let synth_desc order =
  Exp_desc.make ~name:"synth" ~title:"synthetic shuffle grid"
    ~description:"qcheck shuffle property"
    ~cells:(List.map (fun key -> { Exp_desc.key; label = key }) order)
    ~run_cell:(fun _ctx ~seed ~scale:_ cell ->
      Hashtbl.hash (seed, cell.Exp_desc.key))
    ~summarize:(fun ctx ~seed:_ ~scale:_ pairs ->
      List.iter
        (fun (c, v) -> Run_ctx.printf ctx "%s=%d\n" c.Exp_desc.key v)
        (List.sort
           (fun (a, _) (b, _) -> compare a.Exp_desc.key b.Exp_desc.key)
           pairs))

let synth_output order ~jobs =
  let ctx = Run_ctx.for_cell (Run_ctx.create ()) in
  Sweep.run ~jobs ctx (synth_desc order) ~seed:11 ~scale:1.0;
  Run_ctx.buffered_contents ctx

let shuffle_prop =
  let reference = synth_output synth_cells ~jobs:1 in
  QCheck.Test.make ~count:30
    ~name:"sweep: cell-order shuffle + jobs never change merged output"
    QCheck.(pair (list_of_size (Gen.return (List.length synth_cells)) int) bool)
    (fun (weights, parallel) ->
      (* Derive a permutation from the random weights. *)
      let order =
        List.map snd
          (List.sort compare
             (List.map2
                (fun w k -> ((w, k), k))
                weights synth_cells))
      in
      let jobs = if parallel then 4 else 1 in
      String.equal reference (synth_output order ~jobs))

(* --- the --cells selector ------------------------------------------------ *)

(* Each row: experiment, pattern, and the exact cells (in declaration
   order) the pattern must select. The first fifteen rows are the slices
   CI, the Makefile and the docs run (one fault profile, governor
   setting, tenant half, churn profile, rack width or failover setting);
   the rest pin the glob's edge cases. *)
let selections =
  [
    ("chaos", "flaky-*", [ "flaky-probe"; "flaky-noprobe" ]);
    ("chaos", "storm-*", [ "storm-probe"; "storm-noprobe" ]);
    ("overload", "*-on", [ "d1-on"; "d2-on"; "d4-on"; "repeat-d4-on" ]);
    ("overload", "*-off", [ "d1-off"; "d2-off"; "d4-off" ]);
    ( "multitenant",
      "storm-*,burst-*,repeat-*",
      [
        "storm-t2-even";
        "storm-t2-skew";
        "storm-t3-skew";
        "burst-t2-even";
        "burst-t2-skew";
        "repeat-storm-t2-skew";
      ] );
    ( "multitenant",
      "sat-*,idle-*",
      [ "sat-t2-even"; "sat-t2-skew"; "sat-t3-skew"; "idle-t2-skew" ] );
    ("churn", "steady-*", [ "steady-wave"; "steady-depart" ]);
    ("churn", "*flap*", [ "flap-thrash"; "flap-refusal"; "repeat-flap" ]);
    ("churn", "chaos-*", [ "chaos-churn" ]);
    ( "fleet",
      "*n8-*",
      [
        "n8-gov_on-fo_on";
        "n8-gov_off-fo_on";
        "n8-gov_on-fo_off";
        "n8-quiet-fo_on";
        "repeat-n8-gov_on-fo_on";
      ] );
    ("fleet", "*n16-*", [ "n16-storm-gov_on-fo_on" ]);
    ( "fleet",
      "*fo_on",
      [
        "n8-gov_on-fo_on";
        "n8-gov_off-fo_on";
        "n8-quiet-fo_on";
        "n16-storm-gov_on-fo_on";
        "repeat-n8-gov_on-fo_on";
      ] );
    ("fleet", "*fo_off", [ "n8-gov_on-fo_off" ]);
    ( "fleet",
      "*n8-*fo_on",
      [
        "n8-gov_on-fo_on";
        "n8-gov_off-fo_on";
        "n8-quiet-fo_on";
        "repeat-n8-gov_on-fo_on";
      ] );
    ("fleet", "*n16-*fo_on", [ "n16-storm-gov_on-fo_on" ]);
    (* a lone star keeps everything *)
    ( "chaos",
      "*",
      [ "flaky-probe"; "flaky-noprobe"; "storm-probe"; "storm-noprobe" ] );
    (* an exact key is a pattern without a star *)
    ("overload", "d2-on", [ "d2-on" ]);
    (* an empty item matches only the empty key, so it adds nothing *)
    ("churn", ",chaos-*,", [ "chaos-churn" ]);
    (* the whole key must match: an infix alone is not enough *)
    ("overload", "d4", []);
    ("fleet", "gov_on", []);
    (* single-cell experiments carry the key "all" *)
    ("fig3", "all", [ "all" ]);
    (* nothing matches *)
    ("chaos", "none-*", []);
  ]

let cell_selector () =
  List.iter
    (fun (name, pattern, expected) ->
      let desc =
        match Experiments.find name with
        | Some d -> d
        | None -> Alcotest.failf "unknown experiment %s" name
      in
      let selected =
        List.filter_map
          (fun c ->
            if Exp_desc.matches pattern c then Some c.Exp_desc.key else None)
          (Exp_desc.cells desc)
      in
      Alcotest.(check (list string))
        (Printf.sprintf "%s --cells %S" name pattern)
        expected selected)
    selections

(* Paper summaries pair cells (baseline vs Tai Chi, 4 vs 2 CP cores, a
   baseline-normalised column): a selection that leaves one side out must
   render what ran and drop the rest, not fail the summary. *)
let partial_summaries () =
  List.iter
    (fun (name, pattern) ->
      let desc = Option.get (Experiments.find name) in
      let ctx =
        Run_ctx.for_cell (Run_ctx.with_experiment (Run_ctx.create ()) name)
      in
      try
        Sweep.run ~filter:(Exp_desc.matches pattern) ctx desc ~seed:42
          ~scale:0.02
      with e ->
        Alcotest.failf "%s --cells %s: %s" name pattern (Printexc.to_string e))
    [
      ("fig2", "4x");
      ("fig4", "taichi");
      ("fig11", "c1-taichi");
      ("fig12", "taichi");
      ("fig13", "taichi");
      ("fig14", "udp_stream-taichi");
      ("fig15", "taichi");
      ("fig16", "http-taichi");
      ("fig17", "d1-taichi");
      ("table2", "taichi");
      ("sec8", "cptime-2cp");
    ]

let suite =
  [
    Alcotest.test_case "summaries of a partial grid" `Quick partial_summaries;
    Alcotest.test_case "cell selector" `Quick cell_selector;
    Alcotest.test_case "two systems concurrently" `Quick
      two_systems_concurrently;
    Alcotest.test_case "fig17 parallel equivalence" `Slow
      (check_equivalence "fig17" ~scale:0.05);
    Alcotest.test_case "chaos parallel equivalence" `Slow
      (check_equivalence "chaos" ~scale:0.1);
    Alcotest.test_case "overload parallel equivalence" `Slow
      (check_equivalence "overload" ~scale:0.25);
    QCheck_alcotest.to_alcotest shuffle_prop;
  ]
