open Taichi_engine
open Taichi_os
open Taichi_metrics
open Taichi_controlplane
open Exp_common

let param table cell = List.assoc cell.Exp_desc.key table

(* --- Fig 11 --------------------------------------------------------------- *)

let synth_run ctx sys ~concurrency =
  let rng = Rng.split (System.rng sys) "fig11" in
  let locks = [ Task.spinlock "drv-a"; Task.spinlock "drv-b" ] in
  let tasks =
    Synth_cp.make_batch ~rng ~params:Synth_cp.default_params ~locks ~affinity:[]
      ~count:concurrency ()
  in
  List.iter (fun task -> System.spawn_cp sys task) tasks;
  let ok = System.run_until_tasks_done sys tasks ~limit:(Time_ns.sec 30) in
  if not ok then
    Run_ctx.printf ctx "  (warning: synth_cp run hit the time limit)\n";
  avg_turnaround_ms tasks

let concurrencies = [ 1; 2; 4; 8; 16; 32 ]

(* The paper pins data-plane utilization at "30%, consistent with the
   production p99 case": production load whose per-second p99 is 30% has a
   mean near 12% (Fig 3), which is what the bursty generator targets — its
   on-phase seconds run at ~25-30%. *)
let fig11_dp_target = 0.12

let policy_tag = function Policy.Static_partition -> "base" | _ -> "taichi"

let fig11_grid =
  List.concat_map
    (fun conc ->
      List.map
        (fun policy ->
          ( {
              Exp_desc.key = Printf.sprintf "c%d-%s" conc (policy_tag policy);
              label =
                Printf.sprintf "concurrency %d, %s" conc (Policy.name policy);
            },
            (conc, policy) ))
        [ Policy.Static_partition; Policy.taichi_default ])
    concurrencies

let fig11 =
  Exp_desc.make ~name:"fig11"
    ~title:"Figure 11: synth_cp execution time vs concurrency (DP at 30%)"
    ~description:
      "Average synth_cp execution time vs concurrency, baseline vs Tai Chi, \
       with the data plane held at 30% utilization"
    ~cells:(List.map fst fig11_grid)
    ~run_cell:(fun ctx ~seed ~scale:_ cell ->
      let conc, policy =
        param (List.map (fun (c, p) -> (c.Exp_desc.key, p)) fig11_grid) cell
      in
      with_system ~ctx ~seed policy (fun sys ->
          let until = Sim.now (System.sim sys) + Time_ns.sec 30 in
          start_bg_dp sys ~target:fig11_dp_target ~until;
          (* Production CP CPUs are never dedicated to the benchmark: they
             carry the standing 300-500-task ecosystem (§3.2). *)
          start_cp_ecosystem sys ();
          synth_run ctx sys ~concurrency:conc))
    ~summarize:(fun ctx ~seed:_ ~scale:_ results ->
      let ms = Exp_desc.result results in
      let table =
        Table.create
          ~columns:
            [
              ("concurrency", Table.Right);
              ("baseline_ms", Table.Right);
              ("taichi_ms", Table.Right);
              ("speedup", Table.Right);
            ]
      in
      List.iter
        (fun conc ->
          match
            ( ms (Printf.sprintf "c%d-base" conc),
              ms (Printf.sprintf "c%d-taichi" conc) )
          with
          | Some base, Some taichi ->
              Table.add_row table
                [
                  string_of_int conc;
                  Table.cell_f base;
                  Table.cell_f taichi;
                  Printf.sprintf "%.2fx" (base /. Float.max 0.001 taichi);
                ]
          | _ -> ())
        concurrencies;
      Run_ctx.print_table ctx table;
      Run_ctx.printf ctx "Paper shape: ~4x faster at 32 concurrent tasks.\n")

(* --- Fig 17 --------------------------------------------------------------- *)

let storm sys ~density =
  let sim = System.sim sys in
  let rng = Rng.split (System.rng sys) "fig17" in
  let locks =
    List.init 8 (fun i -> Task.spinlock (Printf.sprintf "device-driver-%d" i))
  in
  let recorder = Recorder.create "vm.startup" in
  let params = Exp_common.vm_params sys ~rng ~density in
  let n_vms = max 1 (int_of_float (10.0 *. density)) in
  let tasks =
    List.init n_vms (fun i ->
        Vm_lifecycle.startup_task ~sim ~rng ~params ~locks ~affinity:[]
          ~name:(Printf.sprintf "vm-%d" i)
          ~recorder ())
  in
  List.iter (fun task -> System.spawn_cp sys task) tasks;
  ignore (System.run_until_tasks_done sys tasks ~limit:(Time_ns.sec 60));
  Recorder.mean recorder /. 1e6

let fig17_densities = [ 1.0; 2.0; 3.0; 4.0 ]

let fig17_grid =
  List.concat_map
    (fun density ->
      List.map
        (fun policy ->
          ( {
              Exp_desc.key =
                Printf.sprintf "d%.0f-%s" density (policy_tag policy);
              label =
                Printf.sprintf "density %.0fx, %s" density (Policy.name policy);
            },
            (density, policy) ))
        [ Policy.Static_partition; Policy.taichi_default ])
    fig17_densities

let fig17 =
  Exp_desc.make ~name:"fig17"
    ~title:"Figure 17: VM startup vs density, with and without Tai Chi"
    ~description:
      "Average VM startup time vs instance density, with and without \
       Tai Chi, normalized to the CP SLO"
    ~cells:(List.map fst fig17_grid)
    ~run_cell:(fun ctx ~seed ~scale:_ cell ->
      let density, policy =
        param (List.map (fun (c, p) -> (c.Exp_desc.key, p)) fig17_grid) cell
      in
      with_system ~ctx ~seed policy (fun sys ->
          let until = Sim.now (System.sim sys) + Time_ns.sec 60 in
          start_bg_dp sys ~target:fig11_dp_target ~until;
          start_cp_ecosystem sys ();
          storm sys ~density))
    ~summarize:(fun ctx ~seed:_ ~scale:_ results ->
      let ms = Exp_desc.result results in
      let slo_ms = Time_ns.to_ms_f Vm_lifecycle.slo in
      let table =
        Table.create
          ~columns:
            [
              ("density", Table.Right);
              ("baseline_ms", Table.Right);
              ("baseline/SLO", Table.Right);
              ("taichi_ms", Table.Right);
              ("taichi/SLO", Table.Right);
              ("reduction", Table.Right);
            ]
      in
      List.iter
        (fun density ->
          match
            ( ms (Printf.sprintf "d%.0f-base" density),
              ms (Printf.sprintf "d%.0f-taichi" density) )
          with
          | Some base, Some taichi ->
              Table.add_row table
                [
                  Printf.sprintf "%.0fx" density;
                  Table.cell_f base;
                  Printf.sprintf "%.2fx" (base /. slo_ms);
                  Table.cell_f taichi;
                  Printf.sprintf "%.2fx" (taichi /. slo_ms);
                  Printf.sprintf "%.2fx" (base /. Float.max 0.001 taichi);
                ]
          | _ -> ())
        fig17_densities;
      Run_ctx.print_table ctx table;
      Run_ctx.printf ctx "Paper shape: ~3.1x startup reduction at high density.\n")
